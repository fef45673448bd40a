"""The per-query decision recorder and its enable/disable plumbing.

One :class:`DecisionAudit` instance per process buffers the decision
records of the run in flight and flushes them once, off the hot path,
as a columnar ``.npz`` shard plus a digest-stamped JSON manifest.  The
plumbing mirrors :mod:`repro.telemetry.registry` exactly:

* :func:`get_audit` returns ``None`` unless ``$REPRO_AUDIT_DIR`` is
  set or :func:`configure_audit` was called — every engine hook is
  guarded by that single ``None`` check, so a disabled run pays one
  attribute load per query and nothing else.
* A forked pool child inherits the parent's recorder object, so
  :func:`get_audit` re-resolves from the environment in every process
  that did not resolve it — each child owns its buffer and commits its
  own shards.
* The recorder never touches an RNG stream and never reorders the
  simulation's arithmetic: scores for the audit record are *recomputed*
  from the same pure functions (:func:`repro.core.scoring.omega_vector`
  / :func:`provider_score_vector`) on the vectors the method already
  received, after selection has happened.  Enabling audit leaves every
  simulation output bit-identical (the golden tests assert this both
  ways) and ``ENGINE_VERSION`` untouched.

Flush protocol (the store's write-order discipline, in miniature):
the shard is written first, then the manifest, both through the repo's
one atomic writer (``audit.write`` failpoint sites; the shard's temp is
a visible ``<stem>-<random>.npz.tmp``).  The manifest is the commit
marker — a reader never trusts a shard without one — so the two crash
footprints are an aged ``*.npz.tmp`` husk and an aged manifest-less
``*.npz``, both of which ``queue gc``/``fsck`` recognise as age-gated
litter.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from repro.core.scoring import omega_vector, provider_score_vector
from repro.reliability.artifacts import atomic_write, stamp, verify_stamp
from repro.reliability.failpoints import failpoint
from repro.reliability.singleton import ProcessSingleton

__all__ = [
    "AUDIT_DIR_ENV",
    "AUDIT_FORMAT",
    "AUDIT_TOP_K",
    "DecisionAudit",
    "audit_from_environment",
    "audit_session",
    "audit_state",
    "configure_audit",
    "get_audit",
    "manifest_digest",
    "verify_manifest",
]

#: Setting this environment variable to a directory enables decision
#: auditing process-wide (pool children included — they re-read it on
#: first use) and directs every committed shard there.
AUDIT_DIR_ENV = "REPRO_AUDIT_DIR"

#: Manifest format tag; bump when the shard schema changes
#: incompatibly.  One schema for every producer is an invariant: the
#: ``repro audit`` read surfaces parse exactly one shape.
AUDIT_FORMAT = "repro-audit-1"

#: Candidates kept per decision, best score first.  A constant — not a
#: knob — so every shard is rectangular and two shards diff cleanly.
AUDIT_TOP_K = 4

#: The truncated SHA-256 of a manifest without its stamp (the same
#: stamp telemetry events carry).
manifest_digest = stamp
#: Whether a manifest's digest stamp matches its content.
verify_manifest = verify_stamp


class DecisionAudit:
    """One process's decision buffer and shard writer.

    Parameters
    ----------
    audit_dir:
        Directory committed shards land in (created on first commit).
    """

    def __init__(self, audit_dir: Path | str) -> None:
        self.pid = os.getpid()
        self.audit_dir = Path(audit_dir)
        self._run: dict | None = None

    # -- engine-facing hooks ------------------------------------------

    def begin_run(
        self,
        method: str,
        seed: int,
        capacity_rates: np.ndarray,
        n_classes: int,
        epsilon: float,
        fixed_omega: float | None,
    ) -> None:
        """Reset the buffer for one run (engine ``__init__``).

        ``method`` here is the engine's method name (provenance only);
        the shard's filename method comes from the registry name the
        committing executor passes to :meth:`commit`.
        """
        self._run = {
            "engine_method": str(method),
            "seed": int(seed),
            "capacity_rates": np.asarray(capacity_rates, dtype=float).copy(),
            "n_classes": int(n_classes),
            "epsilon": float(epsilon),
            "fixed_omega": None if fixed_omega is None else float(fixed_omega),
            "unserved": 0,
            # Columnar per-decision buffers (scalars as Python lists,
            # top-K rows as fixed-width arrays stacked at commit).
            "time": [],
            "consumer": [],
            "klass": [],
            "n_desired": [],
            "n_candidates": [],
            "cache_hit": [],
            "chosen": [],
            "n_selected": [],
            "imposed": [],
            "chosen_score": [],
            "chosen_rank": [],
            "score_gap": [],
            "adequation": [],
            "satisfaction": [],
            "consumer_satisfaction": [],
            "topk_providers": [],
            "topk_scores": [],
            "topk_ci": [],
            "topk_pi": [],
            "topk_utilization": [],
        }

    def record_unserved(self) -> None:
        """Count one arrival that found an empty candidate set."""
        if self._run is not None:
            self._run["unserved"] += 1

    def record(
        self,
        time: float,
        consumer: int,
        klass: int,
        n_desired: int,
        cache_hit: bool,
        candidates: np.ndarray,
        positions: np.ndarray,
        provider_intentions: np.ndarray,
        consumer_intentions: np.ndarray,
        utilizations: np.ndarray,
        consumer_satisfaction: float,
        provider_satisfactions: np.ndarray,
        adequation: float,
        satisfaction: float,
    ) -> None:
        """Append one decision (engine ``_dispatch``, post-selection).

        Everything kept is a *copy* gathered out of the per-query
        vectors — the engine reuses its scratch buffers next arrival —
        and the SQLB score recompute below draws no randomness, so
        recording cannot perturb the run.
        """
        run = self._run
        if run is None:
            return
        if run["fixed_omega"] is not None:
            omegas = np.full(
                provider_intentions.shape, run["fixed_omega"]
            )
        else:
            omegas = omega_vector(
                consumer_satisfaction, provider_satisfactions
            )
        scores = provider_score_vector(
            provider_intentions,
            consumer_intentions,
            omegas,
            epsilon=run["epsilon"],
        )
        pos0 = int(positions[0])
        chosen_score = float(scores[pos0])
        finite = scores[np.isfinite(scores)]
        best = float(finite.max()) if finite.size else float("nan")
        # Rank among candidates by score, 0 = best.  ``NaN > x`` is
        # False, so unknown-score candidates never outrank the chosen.
        rank = int(np.sum(scores > chosen_score))

        k = min(AUDIT_TOP_K, candidates.size)
        # Best-score-first, provider index as the deterministic
        # tie-break (lexsort's *last* key is primary; NaN sorts last).
        order = np.lexsort((candidates, -scores))[:k]
        top_providers = np.full(AUDIT_TOP_K, -1, dtype=np.int64)
        top_scores = np.full(AUDIT_TOP_K, np.nan)
        top_ci = np.full(AUDIT_TOP_K, np.nan)
        top_pi = np.full(AUDIT_TOP_K, np.nan)
        top_util = np.full(AUDIT_TOP_K, np.nan)
        top_providers[:k] = candidates[order]
        top_scores[:k] = scores[order]
        top_ci[:k] = consumer_intentions[order]
        top_pi[:k] = provider_intentions[order]
        top_util[:k] = utilizations[order]

        run["time"].append(float(time))
        run["consumer"].append(int(consumer))
        run["klass"].append(int(klass))
        run["n_desired"].append(int(n_desired))
        run["n_candidates"].append(int(candidates.size))
        run["cache_hit"].append(bool(cache_hit))
        run["chosen"].append(int(candidates[pos0]))
        run["n_selected"].append(int(positions.size))
        run["imposed"].append(bool(provider_intentions[pos0] < 0.0))
        run["chosen_score"].append(chosen_score)
        run["chosen_rank"].append(rank)
        run["score_gap"].append(best - chosen_score)
        run["adequation"].append(float(adequation))
        run["satisfaction"].append(float(satisfaction))
        run["consumer_satisfaction"].append(float(consumer_satisfaction))
        run["topk_providers"].append(top_providers)
        run["topk_scores"].append(top_scores)
        run["topk_ci"].append(top_ci)
        run["topk_pi"].append(top_pi)
        run["topk_utilization"].append(top_util)

    @property
    def pending(self) -> bool:
        """Whether an uncommitted run buffer exists."""
        return self._run is not None

    # -- commit --------------------------------------------------------

    @staticmethod
    def _arrays(run: dict) -> dict[str, np.ndarray]:
        n = len(run["time"])

        def stack(name: str) -> np.ndarray:
            rows = run[name]
            if not rows:
                return np.empty((0, AUDIT_TOP_K))
            return np.stack(rows)

        return {
            "time": np.asarray(run["time"], dtype=float),
            "consumer": np.asarray(run["consumer"], dtype=np.int64),
            "klass": np.asarray(run["klass"], dtype=np.int64),
            "n_desired": np.asarray(run["n_desired"], dtype=np.int64),
            "n_candidates": np.asarray(run["n_candidates"], dtype=np.int64),
            "cache_hit": np.asarray(run["cache_hit"], dtype=np.uint8),
            "chosen": np.asarray(run["chosen"], dtype=np.int64),
            "n_selected": np.asarray(run["n_selected"], dtype=np.int64),
            "imposed": np.asarray(run["imposed"], dtype=np.uint8),
            "chosen_score": np.asarray(run["chosen_score"], dtype=float),
            "chosen_rank": np.asarray(run["chosen_rank"], dtype=np.int64),
            "score_gap": np.asarray(run["score_gap"], dtype=float),
            "adequation": np.asarray(run["adequation"], dtype=float),
            "satisfaction": np.asarray(run["satisfaction"], dtype=float),
            "consumer_satisfaction": np.asarray(
                run["consumer_satisfaction"], dtype=float
            ),
            "topk_providers": stack("topk_providers").astype(np.int64),
            "topk_scores": stack("topk_scores").astype(float),
            "topk_ci": stack("topk_ci").astype(float),
            "topk_pi": stack("topk_pi").astype(float),
            "topk_utilization": stack("topk_utilization").astype(float),
            "capacity_rates": run["capacity_rates"],
        } | {"n_decisions": np.asarray([n], dtype=np.int64)}

    def commit(self, key: str, method: str, config) -> Path | None:
        """Flush the buffered run as ``audit-<method>-seed<seed>-<key16>``.

        ``key`` is the run's result-store cache key (the shard sits
        "next to" its store entry by name even when the audit directory
        is elsewhere); ``method`` is the registry name the job ran
        under.  Shard strictly before manifest; the manifest is the
        commit marker.  Returns the manifest path, or ``None`` when no
        run is buffered (double commit, or audit enabled mid-run).
        """
        run = self._run
        if run is None:
            return None
        self._run = None
        arrays = self._arrays(run)
        self.audit_dir.mkdir(parents=True, exist_ok=True)
        stem = f"audit-{method}-seed{run['seed']}-{key[:16]}"
        shard_path = self.audit_dir / f"{stem}.npz"
        manifest_path = self.audit_dir / f"{stem}.json"

        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        shard_bytes = buffer.getvalue()
        failpoint("audit.commit.shard")
        atomic_write(
            shard_path, shard_bytes, site="audit.write", tmp_suffix=".npz.tmp"
        )
        failpoint("audit.commit.manifest")

        manifest = {
            "format": AUDIT_FORMAT,
            "engine_version": _engine_version(),
            "method": str(method),
            "engine_method": run["engine_method"],
            "seed": run["seed"],
            "key": key,
            "npz": shard_path.name,
            "npz_sha256": hashlib.sha256(shard_bytes).hexdigest(),
            "decisions": int(arrays["n_decisions"][0]),
            "unserved": run["unserved"],
            "top_k": AUDIT_TOP_K,
            "n_providers": int(config.n_providers),
            "n_consumers": int(config.n_consumers),
            "n_classes": run["n_classes"],
            "duration": float(config.duration),
            "epsilon": run["epsilon"],
            "fixed_omega": run["fixed_omega"],
        }
        manifest["digest"] = stamp(manifest)
        atomic_write(
            manifest_path,
            (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode(
                "utf-8"
            ),
            site="audit.write",
        )
        return manifest_path


def _engine_version() -> str:
    # Local import: the engine imports this module at load time.
    from repro.simulation.engine import ENGINE_VERSION

    return ENGINE_VERSION


# ---------------------------------------------------------------------
# process-wide active recorder
# ---------------------------------------------------------------------


def audit_from_environment() -> DecisionAudit | None:
    """A recorder per ``$REPRO_AUDIT_DIR`` (unset/empty → ``None``)."""
    audit_dir = os.environ.get(AUDIT_DIR_ENV, "").strip()
    return DecisionAudit(audit_dir) if audit_dir else None


def _build(
    audit_dir: Path | str | None = None, enabled: bool = True
) -> DecisionAudit | None:
    if enabled and audit_dir is not None:
        return DecisionAudit(audit_dir)
    return None


audit_state = ProcessSingleton(audit_from_environment, _build)

#: The process's active recorder, or ``None`` when disabled.
get_audit = audit_state.get
#: Install (``audit_dir``) or clear (``None`` / ``enabled=False``) the
#: process-wide recorder explicitly.
configure_audit = audit_state.configure
#: Scoped fresh recorder for tests; restores whatever was active
#: before on exit.
audit_session = audit_state.session
