#!/usr/bin/env python3
"""Unit tests for publish_results.render: the EXPERIMENTS.md block filler.

Run: python3 tools/test_publish_results.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from publish_results import render  # noqa: E402

DOC = ("intro 1.0\n"
       "<!-- generated: results/paper/a.csv -->\nstale 2.0\n<!-- end generated -->\n"
       "middle 3.0\n"
       "<!-- generated: results/paper/b.csv -->\n<!-- end generated -->\n"
       "outro 4.0\n")
FILES = {"results/paper/a.csv": "x,y\n1,2\n", "results/paper/b.csv": "z\n9\n"}


class RenderTest(unittest.TestCase):
    def test_replaces_only_between_markers(self):
        out = render(DOC, FILES)
        self.assertEqual(out, "intro 1.0\n"
                              "<!-- generated: results/paper/a.csv -->\n```\nx,y\n1,2\n```\n"
                              "<!-- end generated -->\n"
                              "middle 3.0\n"
                              "<!-- generated: results/paper/b.csv -->\n```\nz\n9\n```\n"
                              "<!-- end generated -->\n"
                              "outro 4.0\n")

    def test_marker_naming_an_unwritten_file_fails(self):
        doc = "<!-- generated: results/paper/gone.csv -->\n<!-- end generated -->\n"
        with self.assertRaises(SystemExit) as cm:
            render(doc, FILES)
        self.assertIn("results/paper/gone.csv", str(cm.exception))

    def test_second_run_changes_nothing(self):
        once = render(DOC, FILES)
        self.assertEqual(render(once, FILES), once)


if __name__ == "__main__":
    unittest.main()
