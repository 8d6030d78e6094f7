// WSP space-filling experimental design (Santiago, Claeys-Bruno, Sergent,
// "Construction of space-filling designs using WSP algorithm for high
// dimensional spaces", 2012) — the algorithm the paper uses (§4.1, [45])
// to pick the 253 simulation scenarios per class from the Table-1 ranges.
//
// The WSP (Wootton-Sergent-Phan-Tan-Luu) procedure: from a large candidate
// set, pick a seed point, discard every candidate closer than a minimum
// distance, hop to the nearest survivor and repeat. The minimum distance
// is tuned (here by bisection) until the selected subset has the desired
// size.
//
// Each pick costs one scan over the survivors, kept as a list of indices
// in increasing order: the scan computes each survivor's distance to the
// newly picked point once, drops it if it is closer than the minimum
// distance, otherwise keeps it (compacting the list in place, in order)
// and tracks the nearest. A strict `<` over the ordered list resolves
// equal distances to the lowest index. The list shrinks with every pick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mpq::expdesign {

/// Points in the unit hypercube [0,1]^dims.
using Point = std::vector<double>;

/// Run one WSP selection pass over `candidates` with minimum distance
/// `dmin` (Euclidean). Returns indices of the selected points in selection
/// order. Every candidate must have the same, non-zero number of
/// coordinates (std::invalid_argument otherwise).
std::vector<std::size_t> WspSelect(const std::vector<Point>& candidates,
                                   double dmin);

/// Build a WSP design of exactly `count` points in [0,1]^dims, seeded
/// deterministically. Internally generates `candidate_count` uniform
/// candidates and bisects dmin until the selection reaches `count`
/// (trimming the tail of the selection order if it overshoots).
///
/// The candidates are stored flat and drawn in point order, so the `Rng`
/// stream is consumed exactly as one vector per point would consume it.
/// Every pass starts from the candidate nearest the centre, which does not
/// depend on dmin and is found once per design. A bisection pass only has
/// to tell "more than `count` picks" from "exactly `count`" and "fewer",
/// so it stops at `count + 1` picks. After at most 60 passes the final
/// pass re-selects at the bisection's lower bound `lo` and keeps its first
/// `count` picks, so it stops at `count`. It re-selects even when a pass
/// at `mid` hit `count` exactly, whose picks may differ from those at
/// `lo`. Returning that selection instead would change most designs: a
/// behaviour change that needs the golden WSP digests re-pinned, not a
/// speed-up.
std::vector<Point> WspDesign(std::size_t dims, std::size_t count,
                             std::uint64_t seed,
                             std::size_t candidate_count = 4096);

/// Smallest pairwise distance within the design — the space-filling
/// quality metric WSP maximises (used by tests and the Table-1 bench).
double MinPairwiseDistance(const std::vector<Point>& points);

}  // namespace mpq::expdesign
