// Package core implements Histogram Sort with Sampling (HSS) — the
// paper's primary contribution — as a distributed algorithm over the
// internal/comm runtime, together with a centralized protocol simulator
// that runs the identical splitter-determination protocol at the paper's
// true processor counts (up to hundreds of thousands of buckets).
//
// The package is also the pipeline driver every splitter-based sort in
// the repository runs. Run executes the paper's phases (§6.1.2) once for
// all of them: local sort and global count; splitter determination, or
// an injected plan checked by the staleness guard; partition; the
// all-to-all exchange and k-way merge (the Route — NodeHSS substitutes
// its two-level one); and the stats all-reduce, over one tag layout.
// Plan runs the same front half alone. The key plane (KeyPlane for the
// comparator, decorated and bijective planes, PrefixPlane for byte-key
// prefix codes) decides how keys are sorted, what view determination
// reads and how splitters cut keys; Pipeline holds the
// algorithm-independent options. An algorithm supplies only its
// Determiner — HSS's is Options.Determine; internal/samplesort,
// internal/histsort and internal/nodesort supply the others.
//
// HSS splitter determination supports the three sampling disciplines
// the paper analyzes:
//
//   - FixedOversampling (§6.1.2): every round gathers an expected f·B-key
//     sample from the union of active splitter intervals (the production
//     configuration, f = 5 in the paper's runs).
//   - Theoretical (§3.3): k rounds with the geometric ratio schedule
//     s_j = (2 ln B/ε)^(j/k).
//   - OneRoundScanning (§3.2): a single 2/ε-ratio sample finished by the
//     Axtmann scanning algorithm.
package core
