import os


def pytest_configure(config):
    # Hypothesis writes a cache of the constants it scans from local source to
    # its storage directory even with database=None; keep it in pytest's cache.
    if config.pluginmanager.hasplugin("cacheprovider"):
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(config.cache.mkdir("hypothesis")))
