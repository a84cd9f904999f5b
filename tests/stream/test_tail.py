"""The follow-a-file primitive: JSONL tailing."""

import os

from repro.stream.tail import JsonlTail


def append(path, text):
    with open(path, "ab") as fileobj:
        fileobj.write(text if isinstance(text, bytes) else text.encode())


class TestJsonlTail:
    def test_missing_file_returns_nothing(self, tmp_path):
        tail = JsonlTail(str(tmp_path / "nope.jsonl"))
        assert tail.poll() == []
        assert tail.offset == 0

    def test_appends_arrive_across_polls(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tail = JsonlTail(path)
        append(path, '{"a": 1}\n')
        assert tail.poll() == [{"a": 1}]
        assert tail.poll() == []
        append(path, '{"a": 2}\n{"a": 3}\n')
        assert tail.poll() == [{"a": 2}, {"a": 3}]

    def test_partial_trailing_line_is_buffered_not_torn(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tail = JsonlTail(path)
        append(path, '{"a": 1}\n{"a": ')  # writer caught mid-record
        assert tail.poll() == [{"a": 1}]
        append(path, "2}\n")
        assert tail.poll() == [{"a": 2}]
        assert tail.bad_lines == 0

    def test_bad_lines_counted_and_skipped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tail = JsonlTail(path)
        append(path, 'not json\n{"ok": 1}\n[1, 2]\n\n')
        assert tail.poll() == [{"ok": 1}]
        assert tail.bad_lines == 2  # unparsable + non-object; blank skipped

    def test_truncation_resets_to_the_start(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tail = JsonlTail(path)
        append(path, '{"run": 1}\n{"run": 1}\n')
        assert len(tail.poll()) == 2
        with open(path, "wb") as fileobj:  # log rotated / path reused
            fileobj.write(b'{"run": 2}\n')
        assert tail.poll() == [{"run": 2}]
        assert tail.resets == 1
        assert tail.offset == os.path.getsize(path)
