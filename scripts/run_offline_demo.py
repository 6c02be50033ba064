"""End-to-end offline demo: synthetic taxi data in, story bundle out.

Generates a seeded endpoint-clustered dataset in the Porto extent, writes
it as a Kaggle-schema CSV, runs the full heatmap pipeline with the
template backend and the packaged gazetteer fixture, and drops every
artifact (story, report, map, trace) in the output directory. No network,
no credentials; two runs with the same seed produce identical bytes.
"""

import argparse
import sys
from pathlib import Path

from trajstory.geo import GeoPoint
from trajstory.pipeline import StoryRequest, execute, write_bundle
from trajstory.story import NarrativeSpec, TemplateBackend
from trajstory.synth import (EndpointCluster, SyntheticSpec, generate_dataset,
                             write_kaggle_csv)
from trajstory.validation import summarize_report

# Endpoint mixture anchored on four busy fixture sites: downtown avenue,
# Boavista roundabout, the east rail station, and the river mouth.
CLUSTERS = [
    EndpointCluster(GeoPoint(-8.6107, 41.1480), 0.4, 120.0),
    EndpointCluster(GeoPoint(-8.6290, 41.1580), 0.3, 120.0),
    EndpointCluster(GeoPoint(-8.5855, 41.1486), 0.2, 120.0),
    EndpointCluster(GeoPoint(-8.6769, 41.1508), 0.1, 120.0),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/demo", help="artifact directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trips", type=int, default=400)
    parser.add_argument("--bad-rows", type=int, default=20,
                        help="malformed rows salted into the CSV")
    parser.add_argument("--audience", default="a first time visitor of the city")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    trips = generate_dataset(SyntheticSpec(seed=args.seed, n_trajectories=args.trips,
                                           endpoint_clusters=CLUSTERS))
    csv_path = out / "trips.csv"
    total = write_kaggle_csv(trips, csv_path, bad_rows=args.bad_rows, seed=args.seed)
    print(f"wrote {csv_path} ({total} rows, {args.bad_rows} deliberately bad)")

    request = StoryRequest(
        dataset_path=str(csv_path),
        spec=NarrativeSpec(audience=args.audience),
    )
    run = execute(request, TemplateBackend())

    print(f"\nstory (attempt {run.attempt}, {run.story.word_count} words, "
          f"{len(run.story.mentions)} POI mentions):\n")
    print(run.story.text)
    print(summarize_report(run.report))
    print()
    for path in write_bundle(run, out):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
