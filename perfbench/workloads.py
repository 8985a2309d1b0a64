"""The benchmark's four workloads: seeded inputs, jobs, and their checks.

A workload is a list of passes; a pass is a fixed list of jobs; a job is
one user-level task (one group file through its CLI commands, one symmetry
computation, one claim) made of steps. Each step returns its stable output
and is checked twice after the timed region: against the reference digest
recorded for its input, and against an oracle computed independently in
`cubes` or taken from a closed form.

Inputs come from pools. Item j of a pool is generated from its own fixed
seed, so the reference digests can be recorded once for every item; the
workload seed only chooses which items each pass uses, and in what order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import cubes


class StepFailed(Exception):
    """A step exited non-zero or produced no usable output."""


@dataclass
class Step:
    key: str
    run: Callable[[], tuple[str, object]]
    check: Callable[[str, object], Optional[str]]


@dataclass
class Job:
    name: str
    steps: list[Step]


def _cq():
    import cubequot

    return cubequot


def _cli_step(key: str, argv: list[str], check) -> Step:
    def run():
        from cubequot import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a traced run sees its wrapper
        if code != 0:
            raise StepFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue(), None

    return Step(key, run, check)


def _check_mapping(G, H, mapping) -> Optional[str]:
    """Independent edge-by-edge check of an isomorphism witness."""
    if sorted(mapping) != list(range(G.n)) or G.n != H.n:
        return "witness is not a bijection"
    for u in range(G.n):
        m = G.adj[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if not (H.adj[mapping[u]] >> mapping[v]) & 1:
                return f"witness maps edge {u}-{v} to a non-edge"
    return None


def _as_elements(group) -> list[cubes.Element]:
    return [(g.translation.bits, tuple(g.perm.images)) for g in group.generators]


class GroupItem:
    """One pool group: generators, its closure and invariants from `cubes`."""

    def __init__(self, label: str, n: int, gens: list[cubes.Element]):
        self.label = label
        self.n = n
        self.gens = gens
        self.elements = cubes.closure(gens, n, 1 << 20)
        self.order = len(self.elements)
        self.d = cubes.min_distance(self.elements)
        self.orbits = cubes.orbit_count(self.elements, n)
        self.path: Optional[Path] = None

    def write(self, workdir: Path) -> str:
        if self.path is None:
            self.path = workdir / f"{self.label}.grp"
            self.path.write_text(cubes.group_text(self.n, self.gens), encoding="utf-8")
        return str(self.path)


# ---------------------------------------------------------------------------
# CLI output oracles
# ---------------------------------------------------------------------------


def _mindist_check(item: GroupItem):
    def check(out, _):
        data = json.loads(out)
        want = {
            "d_K": "inf" if item.d == math.inf else item.d,
            "order": item.order,
            "even": cubes.is_even(item.elements),
            "semiregular": item.d >= 1,
        }
        return None if data == want else f"mindist {data} != {want}"

    return check


def _params_check(item: GroupItem):
    """Vertex count by Burnside, and the paper's theorem on the distance
    parameters: the quotient looks like Q_n up to level l (regular of
    valency n, a_(i-1) = 0 and c_i = i for i <= l) iff d_K >= 2l + 1."""

    def check(out, _):
        data = json.loads(out)
        if data["vertices"] != item.orbits:
            return f"vertices {data['vertices']} != {item.orbits}"
        levels = data["levels"]
        local = data["regular"] and data["valency"] == item.n
        for lvl in range(1, len(levels)):
            local = (
                local
                and levels[lvl - 1]["a"] in (0, "VACUOUS")
                and levels[lvl]["c"] in (lvl, "VACUOUS")
            )
            if local != (item.d >= 2 * lvl + 1):
                return f"level {lvl}: cube-like={local} but d_K={item.d}"
        return None

    return check


_VERTICES_RE = re.compile(r'"n_vertices": (\d+)')
_FIRST_LABEL_RE = re.compile(r'"labels": \[\s*"([01]+)"')


def _quotient_check(item: GroupItem):
    def check(out, _):
        m = _VERTICES_RE.search(out)
        if m is None or int(m.group(1)) != item.orbits:
            return f"quotient vertex count {m and m.group(1)} != {item.orbits}"
        first = _FIRST_LABEL_RE.search(out)
        if first is None or first.group(1) != "0" * item.n:
            return "first orbit label is not the zero vertex"
        return None

    return check


_CHECKS = {"mindist": _mindist_check, "params": _params_check, "quotient": _quotient_check}


def _mixed_element(n: int, rng: random.Random) -> cubes.Element:
    if rng.randrange(2):
        return cubes.random_involution(n, rng)
    return cubes.random_element(n, rng)


def _mixed_gens(n: int, rng: random.Random, count: int) -> list[cubes.Element]:
    return [_mixed_element(n, rng) for _ in range(count)]


def _involution_gens(n: int, rng: random.Random, count: int) -> list[cubes.Element]:
    return [cubes.random_involution(n, rng) for _ in range(count)]


def _matched_involution_gens(n: int, rng: random.Random, count: int) -> list[cubes.Element]:
    coords = list(range(n))
    rng.shuffle(coords)
    pairs = list(zip(coords[0::2], coords[1::2]))
    return [cubes.matched_involution(n, pairs, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    nominal_pass_s = 1.0

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def passes(self, seed: int, seconds: float) -> list[list[Job]]:
        """Jobs of each pass of a run; writes their input files. The pass
        count fills `seconds` at the nominal pass time, so it depends on the
        arguments only, never on how fast this run goes."""
        count = max(1, round(seconds / self.nominal_pass_s))
        return [self.pass_jobs(random.Random(f"{self.name}:{seed}:{i}"), seed, i) for i in range(count)]

    def pass_jobs(self, rng: random.Random, seed: int, index: int) -> list[Job]:
        raise NotImplementedError

    def pool_jobs(self) -> list[Job]:
        """Every job any pass can contain, for recording reference digests."""
        raise NotImplementedError


class GroupFileWorkload(Workload):
    """One seeded group file per cell and pass, run through COMMANDS."""

    LABEL = ""
    COMMANDS: tuple[str, ...] = ()
    POOL = 8

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self._items: dict[tuple, GroupItem] = {}

    def cells(self) -> list[tuple]:
        """Input shapes, (n, |K|, ...); a pass holds one item of each."""
        raise NotImplementedError

    def generators(self, cell: tuple, rng: random.Random) -> list[cubes.Element]:
        raise NotImplementedError

    def item(self, cell: tuple, j: int) -> GroupItem:
        if (cell, j) not in self._items:
            tag = ":".join(map(str, cell))
            rng = random.Random(f"{self.name}-pool:{tag}:{j}")
            label = f"{self.LABEL}-{tag.replace(':', '-')}-{j}"
            self._items[cell, j] = GroupItem(label, cell[0], self.generators(cell, rng))
        return self._items[cell, j]

    def job(self, item: GroupItem) -> Job:
        path = item.write(self.workdir)
        base = f"{self.name}/{item.label}"
        steps = [
            _cli_step(f"{base}/{cmd}", [cmd, path, "--format", "json"], _CHECKS[cmd](item))
            for cmd in self.COMMANDS
        ]
        return Job(base, steps)

    def pass_jobs(self, rng, seed, index):
        jobs = [self.job(self.item(cell, rng.randrange(self.POOL))) for cell in self.cells()]
        rng.shuffle(jobs)
        return jobs

    def pool_jobs(self):
        return [self.job(self.item(cell, j)) for cell in self.cells() for j in range(self.POOL)]


class CliScan(GroupFileWorkload):
    """Small groups through mindist, params and quotient: BFS-dominated."""

    name = "cli-scan"
    nominal_pass_s = 2.1
    LABEL = "scan"
    COMMANDS = ("mindist", "params", "quotient")
    POOL = 12

    def cells(self):
        return [
            (n, order, kind)
            for n in range(6, 12)
            for order in (2, 4, 8)
            for kind in ("translation", "mixed")
        ]

    def generators(self, cell, rng):
        n, order, kind = cell
        if kind == "translation":
            return cubes.translation_group(n, order, rng)
        return cubes.semiregular_group(n, order, rng, _mixed_gens)


class QuotientExport(GroupFileWorkload):
    """Larger cubes through mindist and quotient JSON: orbit partition and
    graph serialization, no distance parameters."""

    name = "quotient-export"
    nominal_pass_s = 3.5
    LABEL = "export"
    COMMANDS = ("mindist", "quotient")

    def cells(self):
        return [(n, order) for n in range(12, 16) for order in (2, 4, 8, 16, 32, 64)]

    def generators(self, cell, rng):
        n, order = cell
        return cubes.semiregular_group(n, order, rng, _matched_involution_gens)


# The two slowest claims (thm-class-dist, about 22 s, and cor-odd-iso, about
# 11 s) do not fit in one run; cli-scan and symmetry carry their layers.
VERIFY_CLAIMS = (
    "cor-main-rect", "ex-exp-halved", "ex-k2", "ex-large", "ex-lt-not-vt",
    "ex-not-vt", "ex-valency-m", "lem-a-c", "lem-counting", "lem-covering",
    "lem-cycle", "lem-even", "lem-loc-tn", "lem-nbd", "lem-nbd2", "lem-trick",
    "prop-conjugate", "prop-halved", "small-n-halved-cubes",
    "thm-conjugate-simple", "thm-main-aut", "thm-main-even",
)


class Verify(Workload):
    """The claim suite through `cubequot verify`, one claim per job."""

    name = "verify"
    nominal_pass_s = 14.0
    POOL = 16  # claim-suite seeds with recorded digests

    @staticmethod
    def _check(cid):
        def check(out, _):
            reports = json.loads(out)
            if [r["claim_id"] for r in reports] != [cid]:
                return f"expected one report for {cid}"
            return "claim FAILS" if reports[0]["status"] == "FAILS" else None

        return check

    def job(self, claim_seed: int, cid: str) -> Job:
        key = f"verify/s{claim_seed}/{cid}"
        argv = ["verify", "--claims", cid, "--seed", str(claim_seed), "--format", "json"]
        return Job(key, [_cli_step(key, argv, self._check(cid))])

    def pass_jobs(self, rng, seed, index):
        return [self.job((seed + index) % self.POOL, cid) for cid in VERIFY_CLAIMS]

    def pool_jobs(self):
        return [self.job(s, cid) for s in range(self.POOL) for cid in VERIFY_CLAIMS]


# Closed forms for the symmetry workload.
AUT_Q6 = 2**6 * math.factorial(6)  # 46,080
AUT_HALF_FOLDED8 = 2**6 * math.factorial(8)  # 2,580,480 = |N_even(K)|/|K|
AUT_HALF_NOT_VT10 = 10_321_920  # = |N_even(K)|/|K| for K = <(1^10, (1 2))>


class Symmetry(Workload):
    """Closure, normalizers, automorphism groups, isomorphism and lifts:
    group arithmetic and search, almost no distance parameters."""

    name = "symmetry"
    nominal_pass_s = 7.2
    POOL = 8
    # seeded task -> (n, |K|) of each of its slots in a pass; items of one
    # shape cost about the same, so the seed changes inputs, not the load
    SLOTS = {
        "normalizer-brute": ((7, 4), (7, 8), (7, 4), (7, 8)),
        "halves-iso": ((8, 2), (9, 2), (10, 2), (10, 2)),
        "conjugate-iso": ((8, 2), (9, 2), (10, 4), (10, 4)),
        "lift-deck": ((8, 2), (9, 2), (10, 2)),
        "intersect-even": ((8, 4), (9, 8), (10, 8)),
    }

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self._fixed: Optional[list[Job]] = None
        self._items: dict[tuple, object] = {}

    def _write(self, label: str, n: int, gens) -> str:
        path = self.workdir / f"{label}.grp"
        if not path.exists():
            path.write_text(cubes.group_text(n, gens), encoding="utf-8")
        return str(path)

    # -- fixed tasks ----------------------------------------------------

    def fixed_jobs(self) -> list[Job]:
        if self._fixed is None:
            self._fixed = self._make_fixed()
        return self._fixed

    def _make_fixed(self) -> list[Job]:
        aut_q6 = self._write("aut-q6", 6, cubes.full_group_generators(6))
        ones10 = (1 << 10) - 1
        not_vt10 = self._write("not-vt-10", 10, [(ones10, (1, 0) + tuple(range(2, 10)))])
        folded8 = self._write("folded-8", 8, [((1 << 8) - 1, tuple(range(8)))])
        quat8 = self._write(
            "quaternion-8",
            8,
            [
                (0b00001111, (4, 5, 6, 7, 0, 1, 2, 3)),
                (0b10100101, (1, 0, 3, 2, 5, 4, 7, 6)),
            ],
        )

        def closure_q6():
            cq = _cq()
            K = cq.parse_group_file(aut_q6)
            return f"order={K.order} d_K={cq.min_distance(K)}", None

        def normalizer_order(path, ambient):
            def run():
                cq = _cq()
                K = cq.parse_group_file(path)
                N = cq.normalizer(K, ambient, cap=1)
                return f"order={N.order}", (K, N)

            return run

        def half_aut(path):
            def run():
                cq = _cq()
                h0, _ = cq.halved_graphs(cq.build_quotient(cq.parse_group_file(path)).graph)
                A = cq.automorphism_group(h0)
                return f"order={A.order} orbits={len(A.vertex_orbits())}", None

            return run

        def expect(text):
            return lambda out, _: None if out == text else f"{out!r} != {text!r}"

        def sound_normalizer(out, data):
            K, N = data
            return _normalizer_check(K, N)

        def job(name, run, check):
            key = f"symmetry/{name}"
            return Job(key, [Step(key, run, check)])

        return [
            job("closure-aut-q6", closure_q6, expect(f"order={AUT_Q6} d_K=0")),
            job(
                "normalizer-even-not-vt-10",
                normalizer_order(not_vt10, "even"),
                expect(f"order={2 * AUT_HALF_NOT_VT10}"),
            ),
            job(
                "normalizer-even-folded-8",
                normalizer_order(folded8, "even"),
                expect(f"order={2 * AUT_HALF_FOLDED8}"),
            ),
            job("normalizer-full-quaternion-8", normalizer_order(quat8, "full"), sound_normalizer),
            job("aut-half-folded-8", half_aut(folded8), expect(f"order={AUT_HALF_FOLDED8} orbits=1")),
            job(
                "aut-half-not-vt-10",
                half_aut(not_vt10),
                lambda out, _: None
                if out.startswith(f"order={AUT_HALF_NOT_VT10} ") and not out.endswith(" orbits=1")
                else f"{out!r}: expected order {AUT_HALF_NOT_VT10}, not vertex-transitive",
            ),
        ]

    # -- seeded tasks ---------------------------------------------------

    def seeded_job(self, task: str, n: int, order: int, j: int) -> Job:
        key = (task, n, order, j)
        if key not in self._items:
            rng = random.Random(f"symmetry-pool:{task}:{n}:{order}:{j}")
            make = getattr(self, "_" + task.replace("-", "_"))
            self._items[key] = make(n, order, rng, f"symmetry/{task}/{n}-{order}-{j}")
        return self._items[key]

    def _normalizer_brute(self, n, order, rng, key):
        gens = cubes.semiregular_group(n, order, rng, _mixed_gens)
        path = self._write(key.replace("/", "_"), n, gens)

        def run():
            cq = _cq()
            K = cq.parse_group_file(path)
            N = cq.normalizer(K, "full", cap=1)
            return f"order={N.order}", (K, N)

        return Job(key, [Step(key, run, lambda out, data: _normalizer_check(*data))])

    def _halves_iso(self, n, order, rng, key):
        while True:
            gens = cubes.semiregular_group(n, order, rng, _involution_gens, max_gens=1)
            elements = cubes.closure(gens, n, order)
            if cubes.is_even(elements) and cubes.min_distance(elements) >= 2:
                break
        path = self._write(key.replace("/", "_"), n, gens)

        def run():
            cq = _cq()
            h0, h1 = cq.halved_graphs(cq.build_quotient(cq.parse_group_file(path)).graph)
            w = cq.are_isomorphic(h0, h1)
            return f"isomorphic={w is not None} vertices={h0.n}", (h0, h1, w)

        def check(out, data):
            h0, h1, w = data
            return None if w is None else _check_mapping(h0, h1, w)

        return Job(key, [Step(key, run, check)])

    def _conjugate_iso(self, n, order, rng, key):
        gens = cubes.semiregular_group(n, order, rng, _mixed_gens)
        x, images = rng.randrange(1 << n), cubes.random_perm(n, rng)
        path = self._write(key.replace("/", "_"), n, gens)

        def run():
            cq = _cq()
            K = cq.parse_group_file(path)
            g = cq.CubeAutomorphism(cq.BitVector(n, x), cq.Permutation(images))
            L = cq.conjugate_group(K, g)
            G, H = cq.build_quotient(K).graph, cq.build_quotient(L).graph
            w = cq.are_isomorphic(G, H)
            return f"isomorphic={w is not None} vertices={G.n} order={L.order}", (G, H, w)

        def check(out, data):
            G, H, w = data
            # conjugate subgroups have isomorphic quotients
            if w is None:
                return "quotients of conjugate groups reported non-isomorphic"
            return _check_mapping(G, H, w)

        return Job(key, [Step(key, run, check)])

    def _lift_deck(self, n, order, rng, key):
        """The folded n-cube (|K| = 2), relabeled at random, lifted back."""
        relabel = cubes.random_perm(1 << (n - 1), rng)
        path = self._write(f"folded-{n}", n, [((1 << n) - 1, tuple(range(n)))])

        def run():
            cq = _cq()
            G = cq.build_quotient(cq.parse_group_file(path)).graph.relabeled(relabel)
            cover = cq.lift_covering(G)
            deck = cq.deck_group(cover)
            return f"deck_order={deck.order} covering={cq.verify_covering(cover)}", None

        want = f"deck_order={order} covering=True"
        return Job(key, [Step(key, run, lambda out, _: None if out == want else f"{out!r} != {want!r}")])

    def _intersect_even(self, n, order, rng, key):
        while True:
            gens = _mixed_gens(n, rng, rng.randint(1, 3))
            elements = cubes.closure(gens, n, order)
            if elements is not None and len(elements) == order and not cubes.is_even(elements):
                break
        even_count = sum(1 for x, _ in elements if x.bit_count() % 2 == 0)
        path = self._write(key.replace("/", "_"), n, gens)

        def run():
            cq = _cq()
            return f"order={cq.intersect_even(cq.parse_group_file(path)).order}", None

        want = f"order={even_count}"
        return Job(key, [Step(key, run, lambda out, _: None if out == want else f"{out!r} != {want!r}")])

    def pass_jobs(self, rng, seed, index):
        jobs = list(self.fixed_jobs())
        for task, shapes in self.SLOTS.items():
            jobs += [self.seeded_job(task, *shape, rng.randrange(self.POOL)) for shape in shapes]
        rng.shuffle(jobs)
        return jobs

    def pool_jobs(self):
        jobs = list(self.fixed_jobs())
        for task, shapes in self.SLOTS.items():
            jobs += [
                self.seeded_job(task, *shape, j) for shape in sorted(set(shapes)) for j in range(self.POOL)
            ]
        return jobs


def _normalizer_check(K, N) -> Optional[str]:
    """Every generator of N must normalize K, and |K| must divide |N|."""
    k_gens = _as_elements(K)
    members = set(cubes.closure(k_gens, K.n, K.order))
    if N.order % K.order:
        return f"|K|={K.order} does not divide |N|={N.order}"
    for g in _as_elements(N):
        if not cubes.normalizes(g, k_gens, members):
            return f"normalizer generator {g} does not normalize K"
    return None


WORKLOADS = {w.name: w for w in (Verify, CliScan, QuotientExport, Symmetry)}
