import math
import types

import pytest

from conftest import PORTO_CLUSTERS
from helpers import contains, inject_hallucinations, points, records, track
from oracles import haversine_distance
from trajstory.errors import ConfigurationError
from trajstory.geo import GeoPoint
from trajstory.ingest import parse_dataset, trajectory_digest
from trajstory.story import NarrativeSpec, Story, count_words, extract_mentions
from trajstory.synth import (EndpointCluster, PORTO_BBOX, ScriptedBackend,
                             SyntheticSpec, _pick_cluster, generate_dataset, write_kaggle_csv)


class TestScriptedBackend:
    def test_plays_responses_in_order_and_records_prompts(self):
        backend = ScriptedBackend(["first", "second"])
        assert backend.generate("p1", None, None) == "first"
        assert backend.generate("p2", None, None) == "second"
        assert backend.prompts == ["p1", "p2"]
        assert len(backend.prompts) == 2
        assert backend.backend_id == "scripted"

    def test_running_past_the_script_is_an_error(self):
        backend = ScriptedBackend(["only one"])
        backend.generate("p", None, None)
        with pytest.raises(ConfigurationError, match="exhausted"):
            backend.generate("p", None, None)


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        clusters = [EndpointCluster(GeoPoint(-8.61, 41.15), 0.5, 100.0),
                    EndpointCluster(GeoPoint(-8.62, 41.16), 0.4, 100.0)]
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticSpec(endpoint_clusters=clusters)

    def test_trip_count_is_not_negative(self):
        with pytest.raises(ValueError, match="n_trajectories must be >= 0, got -1"):
            SyntheticSpec(n_trajectories=-1)

    def test_a_draw_past_the_rounded_weight_sum_takes_the_last_cluster(self):
        # ten weights of 0.1 sum to 1 - 2**-53, the largest draw random() gives
        clusters = [EndpointCluster(GeoPoint(-8.61 + i / 100, 41.15), 0.1, 100.0)
                    for i in range(10)]
        assert sum(c.weight for c in clusters) == 1 - 2**-53
        SyntheticSpec(endpoint_clusters=clusters)           # within the sum's tolerance
        draw = types.SimpleNamespace(random=lambda: 1 - 2**-53)
        assert _pick_cluster(draw, clusters) is clusters[-1]

    def test_point_count_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(min_points=1)
        with pytest.raises(ValueError):
            SyntheticSpec(min_points=30, max_points=20)

    def test_negative_cluster_params(self):
        with pytest.raises(ValueError):
            EndpointCluster(GeoPoint(-8.61, 41.15), -0.1, 100.0)
        with pytest.raises(ValueError):
            EndpointCluster(GeoPoint(-8.61, 41.15), 0.1, -1.0)


class TestGenerateDataset:
    def test_same_seed_same_dataset(self):
        spec = SyntheticSpec(seed=42, n_trajectories=30,
                             endpoint_clusters=list(PORTO_CLUSTERS))
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert records(a) == records(b)

    def test_different_seeds_differ(self):
        a = generate_dataset(SyntheticSpec(seed=1, n_trajectories=5))
        b = generate_dataset(SyntheticSpec(seed=2, n_trajectories=5))
        assert records(a) != records(b)

    def test_shape_of_each_trajectory(self):
        spec = SyntheticSpec(seed=3, n_trajectories=25, min_points=5, max_points=9)
        trips = generate_dataset(spec)
        assert len(trips) == 25
        for i, traj in enumerate(trips):
            assert traj.id == f"synt{i:05d}"
            assert 5 <= len(traj.coords) <= 9
            assert traj.start_time == 1_372_636_800 + 600 * i

    def test_zero_stddev_pins_every_endpoint_to_the_center(self):
        center = GeoPoint(-8.6100, 41.1500)
        spec = SyntheticSpec(
            seed=9, n_trajectories=40,
            endpoint_clusters=[EndpointCluster(center, 1.0, 0.0)])
        for traj in generate_dataset(spec):
            assert points(traj)[-1] == center

    def test_endpoints_track_the_cluster_mix(self):
        spec = SyntheticSpec(seed=11, n_trajectories=10_000,
                             endpoint_clusters=list(PORTO_CLUSTERS))
        counts = [0] * len(PORTO_CLUSTERS)
        for traj in generate_dataset(spec):
            end = points(traj)[-1]
            dists = [haversine_distance(end, c.center) for c in PORTO_CLUSTERS]
            counts[dists.index(min(dists))] += 1
        for cluster, n in zip(PORTO_CLUSTERS, counts):
            assert n / 10_000 == pytest.approx(cluster.weight, abs=0.02)

    def test_endpoint_spread_matches_the_stddev(self):
        center = GeoPoint(-8.6100, 41.1500)
        spec = SyntheticSpec(
            seed=13, n_trajectories=4000,
            endpoint_clusters=[EndpointCluster(center, 1.0, 120.0)])
        d2 = [haversine_distance(points(t)[-1], center) ** 2
              for t in generate_dataset(spec)]
        # 2-d gaussian: E[d^2] = 2 sigma^2
        rms = math.sqrt(sum(d2) / len(d2))
        assert rms == pytest.approx(120.0 * math.sqrt(2), rel=0.05)

    def test_uniform_endpoints_stay_in_the_bbox(self):
        for traj in generate_dataset(SyntheticSpec(seed=5, n_trajectories=200)):
            assert contains(PORTO_BBOX, points(traj)[-1])
            assert contains(PORTO_BBOX, points(traj)[0])


class TestInjection:
    def base_story(self):
        text = "A ride through town past [[POI: Ribeira]].\n"
        return Story(text=text, mentions=extract_mentions(text),
                     word_count=count_words(text),
                     spec=NarrativeSpec(min_pois=0), backend_id="test")

    def far_pois(self, n):
        from trajstory.gazetteer import POI
        return [POI(name=f"Distant Spot {i}",
                    location=GeoPoint(-8.9 + i * 0.01, 41.4)) for i in range(n)]

    def test_no_pois_returns_the_story_unchanged(self):
        story = self.base_story()
        assert inject_hallucinations(story, []) is story

    def test_appends_one_parsed_mention_per_poi(self):
        story = self.base_story()
        doctored = inject_hallucinations(story, self.far_pois(5))
        assert len(doctored.mentions) == len(story.mentions) + 5
        names = [m.name for m in doctored.mentions]
        assert names[0] == "Ribeira"
        assert names[1:] == [f"Distant Spot {i}" for i in range(5)]
        assert doctored.text.startswith(story.text.rstrip("\n"))
        assert "claims a detour at [[POI: Distant Spot 0]]." in doctored.text
        assert doctored.word_count == count_words(doctored.text)
        assert doctored.spec is story.spec

    def test_original_story_is_untouched(self):
        story = self.base_story()
        before = story.text
        inject_hallucinations(story, self.far_pois(2))
        assert story.text == before and len(story.mentions) == 1


class TestKaggleWriter:
    def test_round_trip_counts(self, tmp_path):
        trips = generate_dataset(SyntheticSpec(seed=21, n_trajectories=50))
        path = tmp_path / "taxi.csv"
        total = write_kaggle_csv(trips, path, bad_rows=13, seed=4)
        assert total == 63
        parsed = parse_dataset(str(path), "kaggle_porto")
        assert len(parsed) == 50
        assert parsed.skipped_rows == 13

    def test_parsed_geometry_matches_the_source(self, tmp_path):
        trips = generate_dataset(SyntheticSpec(seed=22, n_trajectories=8))
        path = tmp_path / "taxi.csv"
        write_kaggle_csv(trips, path)
        for traj in trips:
            parsed = parse_dataset(str(path), "kaggle_porto", ("by_id", traj.id)).selected
            assert points(parsed) == points(traj)
            assert parsed.start_time == traj.start_time

    def test_start_times_round_trip_with_none_and_zero(self, tmp_path):
        walk = [GeoPoint(-8.61, 41.14), GeoPoint(-8.62, 41.15)]
        trips = [track("none", walk), track("zero", walk, start_time=0),
                 track("set", walk, start_time=1_372_636_800)]
        path = tmp_path / "taxi.csv"
        write_kaggle_csv(trips, path)
        parsed = [parse_dataset(str(path), "kaggle_porto", ("by_id", t.id)).selected
                  for t in trips]
        assert [t.start_time for t in parsed] == [None, 0, 1_372_636_800]
        assert "start time" not in trajectory_digest(parsed[0])
        assert "start time (unix): 0" in trajectory_digest(parsed[1])

    def test_bad_row_placement_is_seeded(self, tmp_path):
        trips = generate_dataset(SyntheticSpec(seed=23, n_trajectories=20))
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        write_kaggle_csv(trips, a, bad_rows=7, seed=1)
        write_kaggle_csv(trips, b, bad_rows=7, seed=1)
        write_kaggle_csv(trips, c, bad_rows=7, seed=2)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
