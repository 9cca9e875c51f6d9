"""What every CLI call pays before its first job: start, import, job list.

``run.py`` times this script from launch to exit.  It imports
``latticemix.cli``, builds the workload's job list and prints the list's
digest, so the parent can confirm it timed the same list it runs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import latticemix.cli  # noqa: E402,F401

from jobs import job_list_digest, make_jobs  # noqa: E402

if __name__ == "__main__":
    print(job_list_digest(make_jobs(sys.argv[1], int(sys.argv[2]))))
