// Package histsort implements classic Histogram Sort (Kale & Krishnan
// 1993; Solomonik & Kale 2010) — the "Old" baseline of Fig 6.2.
//
// Unlike HSS, classic histogram sort never samples: the central processor
// refines candidate splitter keys by bisecting the *key space* (§2.3).
// Each round it broadcasts synthesized probe keys (interval midpoints in
// an order-preserving uint64 code space), ranks them with a global
// histogram reduction, and narrows each splitter's code interval until
// the probe's rank lands in the target window. The number of rounds is
// bounded by log of the key range — the weakness on skewed or clustered
// key distributions that HSS removes (§2.3, §6.3).
//
// The package supplies only that probe refinement, as a Determiner
// (Options.Determine) for the internal/core pipeline driver, which runs
// every other phase. Its SplitterInfo reports one probe count per round
// and Finalized = false when MaxRounds or an exhausted code interval
// forced the fallback to the closest candidates.
//
// Key-space bisection needs arithmetic on keys, so this algorithm is only
// available for key types with an order-preserving integer code
// (internal/keycoder) — or on the byte-key prefix plane, where the view
// is the code array itself and codes.Identity is the coder;
// hssort.Sort rejects it for SortFunc-style opaque comparators.
package histsort
