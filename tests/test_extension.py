import hashlib
import json

from ultrapetal import model_f, model_maps
from ultrapetal.extension import Inconsistent
from ultrapetal.petal_harness import (
    TrialConfig,
    gen_cantor_function,
    gen_scale,
    gen_space,
    gen_support_map,
    spawn_rng,
)


def _outcome(extend, anchors, targets):
    try:
        return extend(anchors, targets).to_json()
    except Inconsistent as err:
        return {"inconsistent": list(err.indices), "message": str(err)}


def _requests(model, gen, metric, rng, cfg, count):
    # targets read off a generated point are consistent; every third
    # request has one target replaced by a draw from the scale pool
    out = []
    for _ in range(count):
        anchors = [gen(rng, cfg) for _ in range(rng.randint(0, 5))]
        point = gen(rng, cfg)
        targets = [metric(point, a) for a in anchors]
        if anchors and rng.random() < 1 / 3:
            targets[rng.randrange(len(targets))] = gen_scale(rng, cfg.scale_pool)
        out.append(_outcome(model.one_point_extension, anchors, targets))
    return out


def test_pinned_extension_outcomes():
    # fixed digest of extension outputs, Inconsistent pairs and messages,
    # and finite embeddings: the construction of the new point is pinned
    cfg = TrialConfig(seed=11)
    record = {
        "f": _requests(model_f, gen_support_map, model_f.delta, spawn_rng(11, 0), cfg, 1500),
        "maps": _requests(model_maps, gen_cantor_function, model_maps.nabla, spawn_rng(11, 1), cfg, 1500),
    }
    rng = spawn_rng(11, 2)
    record["embed"] = [
        {label: m.to_json() for label, m in model_f.embed_space(gen_space(rng, cfg, max_points=10)).items()}
        for _ in range(300)
    ]
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "1bfff0e23b9f49ee9b1410dfdc5a447f12bea09817cbf1f5de94c49b1efe1615"
