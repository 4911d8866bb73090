"""
Back-of-the-envelope numbers for one channel: how fast chunks appear,
how much a month of history weighs, and where the live edge sits.
"""
from ground_truth import archive_bytes, archive_chunks, chunks_per_day
from tssim.stream import StreamParams, build_timeline, chunk_duration, head_chunk_at


def main():
    params = StreamParams()
    d = chunk_duration(params)
    print(f"stream rate        : {params.bitrate_bps / 1000:.0f} Kbps")
    print(f"chunk size         : {params.chunk_size_bytes / 1e6:.0f} MB")
    print(f"chunk duration     : {d:.0f} s")
    print(f"chunks per day     : {chunks_per_day(params):.0f}")
    for days in (1, 7, 30):
        chunks = archive_chunks(params, days)
        size = archive_bytes(params, days)
        print(f"{days:3d}-day archive    : {chunks:9.0f} chunks, {size / 1e9:7.1f} GB")

    print()
    timeline = build_timeline(params, 3600.0)
    for t in (0.0, 31.9, 32.0, 1800.0, 3600.0):
        print(f"head chunk at t={t:7.1f} s : {head_chunk_at(params, t)}")
    print(f"shows tiling the first hour : {len(timeline.shows)}")


if __name__ == "__main__":
    main()
