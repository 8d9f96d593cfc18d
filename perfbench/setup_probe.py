"""One set-up measurement, in the fresh process the benchmark starts for it.

Times ``import qctrans``, building each scenario of the workload and, when
numba is on, a first one-trajectory run of each scenario, which pays the
kernels' compile (or cache load) cost.  Prints {"setup_s": seconds} as JSON.

Usage: python3 perfbench/setup_probe.py SRC_DIR DOCS_JSON
"""

import json
import sys
import time


def main(src, docs_json):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import qctrans

    docs = json.loads(docs_json)
    for name, doc in docs:
        qctrans.build_scenario(doc, name=name)
    if qctrans.NUMBA_ENABLED:
        from workloads import first_call_doc

        for name, doc in docs:
            qctrans.run_ensemble(qctrans.build_scenario(first_call_doc(doc), name=name),
                                 compute_metrics=False)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
