"""The network telescope: a darknet device, capture store, and the
classification/sanitization pipeline the paper runs on raw telescope data.
"""
