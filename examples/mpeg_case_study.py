"""The Section 5 case study: parallel MPEG-4 encoding with APST-DV.

Reproduces the paper's end-to-end workflow on the real local execution
backend, using the same seven steps as the paper's Figure 5:

1. the user provides the input video and the XML specification (the
   Figure 6 listing, with our toy TDV format and external Python callback
   standing in for DV/AVI and ``callback_avisplit.pl``);
2. the daemon divides the load via the callback program (our ``avisplit``);
3. chunks are shipped to workers (really: bytes moved through worker
   inboxes, serialized on the master link);
4. each worker *really encodes* its chunk (per-frame compression, the toy
   ``mencoder``);
5-6. the daemon collects the output files;
7. the user merges them with ``avimerge`` -- and we verify the merged
   result is byte-identical to encoding the whole video serially.

Run:  python examples/mpeg_case_study.py  [--frames N]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.apst import APSTClient, APSTDaemon, DaemonConfig
from repro.execution import LocalExecutionBackend, app_spec
from repro.net import RemoteExecutionBackend, RemoteWorkerPool
from repro.platform.presets import grail_lan
from repro.workloads.video import (
    VideoEncodeApp,
    avimerge,
    mencoder_encode,
    read_dv_frames,
    write_dv_file,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--frames", type=int, default=180,
                        help="video length in frames (paper: 1830; default "
                             "shortened so the example runs in seconds)")
    parser.add_argument("--algorithm", default="rumr",
                        help="DLS algorithm (Figure 6 uses rumr)")
    parser.add_argument("--backend", choices=("threads", "process"),
                        default="threads",
                        help="worker isolation: in-process threads, or one "
                             "socket worker process per worker on loopback "
                             "(closest to APST's Ssh-launched remote workers)")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="apstdv_case_study_"))
    print(f"working directory: {workdir}")

    # step 1: input video + XML specification
    input_video = workdir / "input.tdv"
    write_dv_file(input_video, frames=args.frames, frame_bytes=2048, seed=7)
    probe_frames = max(2, args.frames // 90)  # paper: 21 of 1830 frames
    xml = f"""
    <task executable="run_mencoder.sh" arguments="input.tdv mpeg4.tm4v"
          input="input.tdv" output="mpeg4.tm4v">
      <divisibility input="input.tdv" method="callback" load="{args.frames}"
                    callback="python -m repro.workloads.video_callback"
                    arguments="input.tdv"
                    algorithm="{args.algorithm}" probe_load="{probe_frames}"/>
    </task>
    """

    # steps 2-6: daemon divides, ships, encodes, collects
    grid = grail_lan(total_load=float(args.frames),
                     ideal_compute_time=700.0 * args.frames / 1830.0)
    with RemoteWorkerPool() as pool:  # reaps the socket workers, if any
        if args.backend == "process":
            endpoints = pool.spawn(
                len(grid.workers), app_spec(VideoEncodeApp), workdir / "workers"
            )
            backend = RemoteExecutionBackend(endpoints, workdir / "work", time_scale=0.01)
        else:
            backend = LocalExecutionBackend(
                workdir / "work", app=VideoEncodeApp(), time_scale=0.01
            )
        daemon = APSTDaemon(grid, backend=backend, config=DaemonConfig(base_dir=workdir))
        client = APSTClient(daemon)
        job_id = client.submit(xml)
        client.run()
        report = client.report(job_id)
        print(report.render())

    # step 7: the user merges the outputs with avimerge
    outputs = client.outputs(job_id)
    merged = workdir / "mpeg4.tm4v"
    avimerge(outputs, merged)

    # verification: parallel result == serial encode of the whole video
    serial = workdir / "serial.tm4v"
    mencoder_encode(input_video, serial)
    identical = merged.read_bytes() == serial.read_bytes()
    print(f"\nmerged {len(outputs)} chunk outputs -> {merged.name}: "
          f"{'byte-identical to serial encoding' if identical else 'MISMATCH'}")
    print(f"frames encoded: {len(read_dv_frames(input_video))}")
    if not identical:
        sys.exit(1)


if __name__ == "__main__":
    main()
