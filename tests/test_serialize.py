"""`serialize.dump_json` writes JSON that `json.loads` reads back."""

import json

from tailseries import serialize


def test_every_control_character_round_trips():
    # U+0000..U+001F must be escaped in a JSON string, and so must `"` and `\`
    for char in [*map(chr, range(0x20)), '"', "\\"]:
        text = f"a{char}b"
        payload = {"out": text, f"key{char}": [text]}
        assert json.loads(serialize.dump_json(payload)) == payload


def test_plain_strings_keep_their_bytes():
    # other characters are written as they are, and \n, \r and \t as before
    assert serialize.to_json_text('é "q" \\ \n\r\t') == '"é \\"q\\" \\\\ \\n\\r\\t"'
