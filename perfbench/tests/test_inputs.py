"""The workload generators are deterministic in the seed: the same seed
gives the same inputs, different seeds give different inputs.

Builds the driver (as run.py does) on first use.

    python3 -m unittest discover -s perfbench/tests
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class GeneratorDeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def inputs(self, workload, seed):
        out = subprocess.run([self.driver, "inputs", "--workload", workload, "--seed", str(seed)],
                             capture_output=True, text=True, check=True)
        return out.stdout

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            a, b = self.inputs(w, 11), self.inputs(w, 11)
            self.assertTrue(a.strip(), w)
            self.assertEqual(a, b, w)

    def test_different_seeds_differ(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(self.inputs(w, 11), self.inputs(w, 12), w)


if __name__ == "__main__":
    unittest.main()
