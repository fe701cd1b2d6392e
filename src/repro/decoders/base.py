"""Decoder interface shared by every decoding backend."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..surface.lattice import SurfaceLattice
from .geometry import Coord, MatchingGeometry, PairTarget

#: Entry cap of the cross-call component memos (``MWPMDecoder._match_memo``,
#: ``UnionFindDecoder._peel_memo``).  Decoders live as long as the service
#: that holds them, so a memo that reaches the cap is cleared rather than
#: left to grow; one d=9 ``serve_bulk`` pass fills about 20k entries.
MEMO_MAX_ENTRIES = 1 << 16


def remember(memo: dict, key, value) -> None:
    """Store ``memo[key] = value``, first clearing a memo at the cap."""
    if len(memo) >= MEMO_MAX_ENTRIES:
        memo.clear()
    memo[key] = value


@dataclass
class BatchDecodeResult:
    """Outcome of decoding a batch of syndromes in one call.

    This is the structure-of-arrays counterpart of :class:`DecodeResult`:
    every field is stacked over the batch axis so Monte-Carlo loops can
    consume corrections without per-shot Python objects.

    Attributes
    ----------
    corrections:
        ``(batch, n_data)`` uint8 correction vectors.
    converged:
        ``(batch,)`` bool; False where the backend gave up.
    cycles:
        ``(batch,)`` hardware cycles to solution (mesh decoder only;
        ``None`` otherwise).
    """

    corrections: np.ndarray
    converged: np.ndarray
    cycles: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.corrections.shape[0])

    def __getitem__(self, i: int) -> "DecodeResult":
        """Materialize one shot as a per-shot :class:`DecodeResult`."""
        return DecodeResult(
            correction=self.corrections[i],
            cycles=None if self.cycles is None else int(self.cycles[i]),
            converged=bool(self.converged[i]),
        )

    @classmethod
    def from_results(cls, results: List["DecodeResult"]) -> "BatchDecodeResult":
        """Stack per-shot results (the generic fallback path)."""
        corrections = np.stack([r.correction for r in results]) if results \
            else np.zeros((0, 0), dtype=np.uint8)
        converged = np.array([r.converged for r in results], dtype=bool)
        cycles = None
        if results and all(r.cycles is not None for r in results):
            cycles = np.array([r.cycles for r in results], dtype=np.int64)
        return cls(corrections=corrections, converged=converged, cycles=cycles)


@dataclass
class DecodeResult:
    """Outcome of decoding one syndrome.

    Attributes
    ----------
    correction:
        ``(n_data,)`` uint8 correction vector (1 = apply a Pauli flip).
    pairs:
        Matched pairs in canonical coordinates, when the backend produces
        an explicit matching (the mesh decoder reports raw chains instead).
    cycles:
        Hardware cycles to solution (mesh decoder only; ``None`` otherwise).
    converged:
        False when the backend gave up (e.g. ablated mesh variants that
        cannot pair leftover syndromes).
    """

    correction: np.ndarray
    pairs: List[Tuple[Coord, PairTarget]] = field(default_factory=list)
    cycles: Optional[int] = None
    converged: bool = True
    metadata: dict = field(default_factory=dict)


class Decoder(abc.ABC):
    """Maps an error syndrome to a correction on one lattice.

    Each instance is bound to a lattice and an error type (``"z"`` decodes
    Z errors from X-ancilla syndromes; ``"x"`` the transpose).
    """

    #: registry/experiment identifier; subclasses override
    name: str = "abstract"

    def __init__(self, lattice: SurfaceLattice, error_type: str = "z") -> None:
        self.lattice = lattice
        self.geometry = MatchingGeometry(lattice, error_type)

    @property
    def error_type(self) -> str:
        return self.geometry.error_type

    @abc.abstractmethod
    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        """Decode a single ``(n_syndromes,)`` syndrome vector."""

    def decode_batch(self, syndromes: np.ndarray) -> BatchDecodeResult:
        """Decode a ``(batch, n_syndromes)`` array in one call.

        The base implementation loops :meth:`decode`; hot decoders
        override it with vectorized paths that are golden-tested
        bit-identical to the per-shot loop (``tests/test_batch_decode.py``).
        """
        syndromes = self._check_syndrome_batch(syndromes)
        if syndromes.shape[0] == 0:
            return self._empty_batch()
        return BatchDecodeResult.from_results(
            [self.decode(s) for s in syndromes]
        )

    def _check_syndrome_batch(self, syndromes: np.ndarray) -> np.ndarray:
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2 or syndromes.shape[1] != self.geometry.n_syndromes:
            raise ValueError(
                f"syndrome batch shape {syndromes.shape} != "
                f"(batch, {self.geometry.n_syndromes})"
            )
        return syndromes

    def _empty_batch(self) -> BatchDecodeResult:
        return BatchDecodeResult(
            corrections=np.zeros((0, self.lattice.n_data), dtype=np.uint8),
            converged=np.zeros(0, dtype=bool),
        )

    def decode_to_correction(self, syndrome: np.ndarray) -> np.ndarray:
        return self.decode(syndrome).correction

    def _check_syndrome(self, syndrome: np.ndarray) -> np.ndarray:
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (self.geometry.n_syndromes,):
            raise ValueError(
                f"syndrome shape {syndrome.shape} != ({self.geometry.n_syndromes},)"
            )
        return syndrome

    def verify_correction(self, syndrome: np.ndarray, result: DecodeResult) -> bool:
        """True iff the correction reproduces the observed syndrome."""
        produced = self.geometry.syndrome_of_errors(result.correction)
        return bool(np.array_equal(produced % 2, np.asarray(syndrome) % 2))
