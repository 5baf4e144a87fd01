def pytest_addoption(parser):
    parser.addoption(
        "--corpus",
        action="store_true",
        help="also run the full differential corpus of tests/corpus.py",
    )
