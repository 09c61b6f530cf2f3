// Package analysis is memexvet: a static-analysis suite that enforces,
// at build time, the repo-specific invariants this codebase has broken —
// and re-fixed — once per subsystem. Every analyzer encodes a bug class
// that shipped in an earlier PR and that no off-the-shelf linter checks.
// The suite has one runner, TestTreeClean, part of `go test ./...` and of
// CI's memexvet job, so the next regression of one of these contracts
// fails a merge instead of a production pass.
//
// The suite is small on purpose. An invariant belongs here only while the
// code can still express its violation and no test fails on every run of
// it; the ones an API can rule out are held by construction instead
// (listed below), and what is checked here is
// purely syntactic: AST walks over type-checked packages, no control-flow
// graph, no dataflow.
//
// # The invariants, and the bugs that motivated them
//
// lockiter — no bulk iteration or blocking calls while holding a mutex.
//
//	PR 5 found Graph.PageRank holding g.mu.RLock across a ~30-iteration
//	power loop over the whole graph, stalling every ingest publish
//	behind a mining pass. The analyzer flags (a) syntactically nested
//	loops and (b) calls into blocking APIs (net, net/http, os/exec,
//	time.Sleep, io.ReadAll/Copy) executed while a sync.Mutex or
//	sync.RWMutex is held. The sanctioned shape is snapshot-then-work:
//	copy what you need under the lock, release it, then iterate
//	(StoreStats does; PageRank did until it was deleted unused).
//
// epochbatch — one page's derived records publish in one batch.
//
//	A page's derived state — tf/ term counts, lnk/ out-links, rin/
//	in-links — must land in a single version-store Batch so a
//	snapshot can never observe a page's text without its place in the
//	link graph. The analyzer flags the two bugs the batch API can still
//	express: one page's records split across two Publishes (two
//	batches in a function), and staging into a batch after its Publish.
//
// atomicban — sync/atomic's package-level functions are not called.
//
//	PR 8's first metrics draft bumped per-endpoint counters with plain
//	`m.requests++` on the hot path while the scrape path read them with
//	atomic.LoadUint64: a read-modify-write race that tears under the
//	race detector. The pointer-taking functions (atomic.AddUint64(&x, 1)
//	and the rest) are what allow it — x stays an ordinary variable. The
//	analyzer bans calling them; the typed wrappers (atomic.Uint64,
//	atomic.Int64, atomic.Pointer[T], …) are the only spelling, and make
//	plain access a compile error.
//
// reader — every export has a reader (module-wide; reader.go).
//
//	Unread code was found by hand, one package at a time, over and over:
//	a version-store delete no product code staged, accessors recomputing
//	numbers StoreStats already reported, a second batch constructor. The
//	check lists every exported func, method, type, var and const declared
//	in a non-test file under the module's internal/, and fails on each
//	that no non-test file outside bench/ refers to: a test reading a name
//	keeps nothing alive, and neither does the benchmark. Uses match
//	across packages by (package path, receiver, name), since every
//	package sees its imports through export data; a use inside the
//	name's own declaration (recursion, a type named in its own methods)
//	reads nothing, and a value of a type reads the type. Two kinds of
//	method are read without a reference: one that satisfies an interface
//	the module uses — one named in a signature, a variable, a field or an
//	expression of a reader file, such as heap.Interface, http.Handler or
//	graph.AdjacencySource — and String or Error. It needs the whole module
//	at once, so it is not an Analyzer: runModule runs it beside the
//	suite. What a _test.go file declares or reads counts for nothing.
//
// # Held by construction
//
// Contracts that need no analyzer, because the code cannot express their
// violation (DESIGN.md §4):
//
//   - A version-store pin is released on every path, and no reference to
//     the pinned view outlives it: core.Engine hands out a DerivedView
//     only inside withView(func(*DerivedView)), which unpins when the
//     closure returns or panics; a view used after that panics on every
//     accessor.
//   - An HTTP reply commits once, from a complete body: a server handler
//     is a function from *http.Request to (reply, error) and never sees
//     the ResponseWriter; one writer in the route wrapper sets
//     Content-Type, status and body, once.
//   - Every 429/503 carries Retry-After: only the wrapper's reject
//     produces those codes, and it sets the header.
//   - A variable updated atomically is never accessed plainly: with
//     atomicban, the typed wrappers are the only atomics there are.
//
// Two more need no analyzer because a test fails on every run of their bug
// (DESIGN.md §4): map order reaching a codec's bytes fails the codecs'
// round-trip tests and TestGoldenAnswers, and an impure load schedule
// fails internal/load's TestScheduleDeterministic.
//
// # Suppressions
//
// A finding that is a true exception — audited, with a reason — is
// silenced in place:
//
//	//memexvet:ignore <analyzer> <reason…>
//
// written either as a trailing comment on the flagged line or as a
// standalone comment on the line immediately above it; each directive
// governs exactly one line. The analyzer name must be one of lockiter,
// epochbatch, atomicban or reader; the reason is
// mandatory, and a reader directive's reason names the reader the name
// waits for (bench/layers.go until the benchmark moves off it, a test that
// holds a kernel to it as the reference). Suppressions are themselves
// checked: a malformed directive (unknown analyzer, missing reason) and a
// stale one (its line no longer triggers the named analyzer) are both
// errors, so dead suppressions cannot accumulate and hide future
// regressions. A directive is judged stale only by a run of its check:
// a golden test that runs one analyzer leaves the others' directives
// alone.
//
// # Running it
//
// TestTreeClean is the suite's one runner. It loads every package of the
// module with its _test.go files and its external test package, and runs
// the three analyzers and the reader check over all of them:
//
//	go test -run TestTreeClean ./internal/analysis/
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// analysistest-style golden tests) but is built on the standard library
// only — this module is dependency-free by policy — loading type
// information from the build cache's export data via `go list -export`.
// If the repo ever takes on x/tools, each Analyzer.Run ports across
// nearly verbatim.
package analysis
