# Build, test and verification entry points for the digfl module.
# (stdlib-only; no tool dependencies beyond the Go toolchain)

GO ?= go

.PHONY: build test bench loc verify verify-fmt verify-runs verify-faults verify-net verify-adv verify-reweight verify-scale verify-wire verify-crash verify-engines verify-async verify-secure verify-bench bench-workload bench-kernels

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# loc prints non-test and test Go lines (wc -l, comments and blanks
# included) per package directory and in total, bench/ excluded (the
# repository benchmark is frozen between PRs). The LOC deltas quoted in
# CHANGES.md are this target run on the parent commit and on the change.
loc:
	@for d in $$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%-32s %8d %8d\n' $$d \
			$$(cat /dev/null $$(ls $$d/*.go | grep -v _test.go) | wc -l) \
			$$(cat /dev/null $$(ls $$d/*_test.go 2>/dev/null) | wc -l); \
	done | awk 'BEGIN { printf "%-32s %8s %8s\n", "package", "non-test", "test" } \
		{ print; s += $$2; t += $$3 } END { printf "%-32s %8d %8d\n", "total", s, t }'

# verify is the full pre-submit recipe referenced by README.md: vet every
# package, check the formatting and exercise every concurrent path under the
# race detector.
# Note: the -race run takes several minutes on small machines; scope it to
# touched packages while iterating ($(GO) test -race ./internal/<pkg>/).
verify:
	$(GO) vet ./...
	$(MAKE) verify-fmt
	$(MAKE) verify-runs
	$(GO) test -race ./...
	$(MAKE) verify-faults
	$(MAKE) verify-net
	$(MAKE) verify-adv
	$(MAKE) verify-reweight
	$(MAKE) verify-scale
	$(MAKE) verify-wire
	$(MAKE) verify-crash
	$(MAKE) verify-engines
	$(MAKE) verify-async
	$(MAKE) verify-secure
	$(MAKE) verify-bench

# The -run regex and packages of each verify-* gate below. verify-runs
# checks every alternative of each regex against the tests, fuzz targets,
# benchmarks and examples `go test -list` finds in that gate's packages: an
# alternative that names nothing runs nothing, and passes silently.
FAULTS_RUN = Fault|Crash|Dropout|Retr|Survivor|Checkpoint|Resume|Backoff
FAULTS_PKGS = ./internal/faults/ ./internal/hfl/ ./internal/vfl/ ./internal/logio/ ./internal/robust/ ./internal/experiments/
NET_RUN = Loopback|LocalSource|Straggler|Retry|Cancel|Wire|Score|Composition|ModeOnly
NET_PKGS = ./internal/fednet/
SCALE_RUN = Sample|Sampled|Cohort|Stream|MeanFold|Scale100k|Retain|Reclaim|TotalsOnly|LongPoll|RoundCloses|Lookahead
SCALE_PKGS = ./internal/sampling/ ./internal/hfl/ ./internal/core/ ./internal/fednet/ ./internal/vfl/
WIRE_RUN = Codec|Frame|BenchDriverRequestShapes|Pool|SizeClass|WireCodec|WireDeterministic|FiniteVec|DotAdd|HandlerAllocs|ReplyBytes|RoundQuery|InstanceHeader
WIRE_PKGS = ./internal/fednet/ ./internal/tensor/ ./internal/experiments/
ASYNC_RUN = Async|PolyWeight|Stale|Buffered|FedProx
ASYNC_PKGS = ./internal/hfl/ ./internal/fednet/ ./internal/experiments/ ./internal/robust/
SECURE_RUN = Secure|Encrypt|Decrypt|DotPlain|AddPlain|MaskedGradient|FixedBase|CRT|MulMod|DecryptVec
SECURE_PKGS = ./internal/paillier/ ./internal/vfl/
ENGINES_RUN = Engine|Truncation|Reported|AllDropped|Sampler|Golden|MRMatchesExact|Kendall|Volatility|RunWrappers
ENGINES_PKGS = ./internal/shapley/ ./internal/baselines/ ./internal/experiments/ ./internal/fednet/ ./internal/metrics/ ./internal/hfl/ ./internal/vfl/
CRASH_RUN = WAL|Recover|Chaos|DomainsUnique
CRASH_PKGS = ./internal/fednet/ ./internal/experiments/ ./internal/faults/
ADV_RUN = Adversar|Tamper|Quarantine|Reweight|PluginShape|Screen|Krum|NormBound|Mutate|Poison|Fires|NonFinite|Reject|AXPY4|AXPYRows|DotRows|DotAdd4|MatTVec|RowKernels|RoundSums
ADV_PKGS = ./internal/adversary/ ./internal/robust/ ./internal/core/ ./internal/hfl/ ./internal/vfl/ ./internal/fednet/ ./internal/experiments/ ./internal/tensor/
REWEIGHT_RUN = TestReweighted|TestBannedAtCloseAddsNothing|TestStreamedReweight|TestStreamedQuarantine|TestCompositionStreamedIsOnePredicate|TestAdversarialEfficacyGate
REWEIGHT_PKGS = ./internal/hfl/ ./internal/robust/ ./internal/fednet/ ./internal/experiments/
RUN_GATES = FAULTS NET SCALE WIRE ASYNC SECURE ENGINES CRASH ADV REWEIGHT

# check_runs is the shell that fails when an alternative of the -run regex
# $(1) names nothing in packages $(2).
check_runs = names=$$($(GO) test -list . $(2) | grep -E '^(Test|Fuzz|Benchmark|Example)') || exit 1; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$names" | grep -qE -- "$$alt" || { echo "verify-runs: -run alternative '$$alt' names nothing in $(2)"; exit 1; }; \
	done;

verify-runs:
	@$(foreach g,$(RUN_GATES),$(call check_runs,$($(g)_RUN),$($(g)_PKGS)))
	@echo "verify-runs: every -run alternative names a test"

# verify-fmt fails when gofmt would reformat any Go file, the benchmark's
# (bench/, only read) included.
verify-fmt:
	@files=$$(gofmt -l . bench) || exit 1; \
	if [ -n "$$files" ]; then echo "verify-fmt: gofmt -l lists:"; echo "$$files"; exit 1; fi

# verify-bench vets the repository benchmark (bench/, a module of its own
# that the root module's ./... does not reach) and runs its smoke-scale
# tests: every workload end to end with its reference checks, < 5 s.
verify-bench:
	cd bench && $(GO) vet . && $(GO) test ./...

# bench-workload runs one BENCHMARK.json workload once, untraced, at the
# benchmark's run length: make bench-workload W=vfl-secure
bench-workload:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 10 --trace 0

# bench-kernels runs the hot-path kernel microbenchmarks once each with
# -benchmem. The streamed round's — cohort draw, estimator observe, the
# fold's dot/axpy/fused pass and its four-delta pass, a whole 64×2000
# MeanStream fold, the frame codec's vector encode and decode
# (one 2000-float update), update ingest (on a streamed round, and on a
# journaled buffered one with its journal checked against EncodeUpdate's
# bytes), round poll and a warm /v1/score read of 100k totals through
# Handler() — at the reference cell's shapes (100k population, cohort 64,
# d=2000); and the validation loss's, which every round's turnaround and
# every engine's utility evaluation pay — the four-row dot kernel at d=2000,
# MatVec on a 32×2000 validation set, the audit's softmax loss (400 rows ×
# 64 features × 10 classes); and the buffered round's sums — its weighted
# aggregate (AXPYRows over 64 deltas of 2000), the Xᵀr under a validation
# gradient (MatTVecTo, 32×2000) and a resource-saving observe of 64 raw
# deltas. Each of those checks its results against a term-by-term reference
# kept in its test file. And the secure epoch's, at
# 1024 bits: one warm encryption, the exponentiation kernel on one 77-row
# column, a party's step 4 (77×3 training, 19×3 validation), the modular
# product every kernel is made of (mulMod, product and squaring, at 1024 and
# 2048 bits) and step 5's vector decryption of nine ciphertexts — all but the
# encryption checked against their references before timing.
bench-kernels:
	$(GO) test -run '^$$' -benchmem -bench 'Cohort100k|ObserveDots100k|ObserveDeltas64x2000|Dot2000|AXPY2000|DotAdd2000|DotAdd4x2000|MeanFold64x2000|Dot4x2000|MatVec32x2000|AXPYRows64x2000|MatTVec32x2000|SoftmaxLoss400x64x10|FrameVec2000|IngestUpdate|RoundPollV2|ScoreRead100k' \
		./internal/sampling/ ./internal/core/ ./internal/tensor/ ./internal/hfl/ ./internal/nn/ ./internal/fednet/
	$(GO) test -run '^$$' -benchmem -bench 'Encrypt$$/1024|DotPlain/77|MaskedGradient|MulMod|DecryptVec/9' ./internal/paillier/ ./internal/vfl/

# verify-faults runs the fault-injection suite: the determinism gate
# (TestFaultScheduleDeterministic runs the full dropout/straggler/crash/
# checkpoint/resume lifecycle twice over 3 fixed seeds and fails on any
# divergence in schedule, event trace, model bits, or attribution), the
# crash-resume bit-identity checks, and the injector/trainer/secure-retry
# fault tests across all packages. -count=1 defeats the test cache so the
# lifecycle actually re-executes.
verify-faults:
	$(GO) test -count=1 -run '$(FAULTS_RUN)' $(FAULTS_PKGS)

# verify-net runs the networked-runtime determinism gate: the loopback
# bit-identity test (3 participants over real HTTP vs the in-process
# trainer, across 3 fixed seeds, model/curve/archive/phi compared bit for
# bit; a buffered loopback run against a MeanStream{} one, bit for bit),
# the straggler-deadline survivor equivalence, retry transparency
# under injected request loss, cancellation promptness, the harness server's
# limits (a stalled header is dropped, a long poll is not), and the composition
# table (every row refused before the journal opens or a participant joins —
# each "Stream" row under Stream and Async alone — README matrix in
# step with it, the one streamed predicate picking fold and round mode,
# mode-only endpoints refused elsewhere) —
# plus go vet on the package. -count=1 defeats the test cache so the wire is
# actually exercised.
verify-net:
	$(GO) vet ./internal/fednet/
	$(GO) test -count=1 -run '$(NET_RUN)' $(NET_PKGS)

# verify-scale runs the 100k-participant scaling gate: deterministic cohort
# sampling (3 seeds x rerun and crash/resume bit-identity, sampling composed
# with dropout faults), the streaming-aggregation equivalence tests
# (in-process streamed == streamed loopback, and buffered == MeanStream{} on
# flat, sampled and dropout runs in process and over loopback, bit for bit
# across 3 seeds), the MeanStream fold's staging (every four-wide pass / tail
# split of 0–9 slots, gaps, Pending, every arrival order) and the streamed round's recycling of every delta whatever the
# arrival order, the delta-retention release tests (the
# use-after-release guard on the vectors a buffered Round takes back among
# them), and the bounded-memory gate (a 100k-participant streamed round must complete with
# total allocations bounded by the cohort, not the population; a TotalsOnly
# Observe of a 64-of-100k epoch and a 100k cohort draw must allocate nothing
# population-sized), the golden cohort sequence, the wake-once round close,
# and the cohort lookahead's two contracts (the cohort used at every epoch ≡
# the direct draw, on fresh / resumed / crashed / dropout / coalition runs;
# a canceled or crashed run leaves no lookahead goroutine behind — hfl's and
# fednet's TestMain hold every test to the same). -count=1 defeats the test
# cache so the memory measurement re-executes.
verify-scale:
	$(GO) vet ./internal/sampling/ ./internal/hfl/ ./internal/core/ ./internal/fednet/
	$(GO) test -count=1 -run '$(SCALE_RUN)' $(SCALE_PKGS)

# verify-wire runs the binary-wire gate: the frame round-trip tests, the
# non-frame refusal table (any Content-Type but the frame type answers 415
# on the ingest handler before the body is read), the malformed-frame
# rejection tests (truncated/oversized/NaN binary payloads answer 422, never
# a panic), the request-shape pin of what the frozen bench/ driver sends, a
# fuzz smoke pass over the two binary frame decoders and over Handler() on
# an open streamed, journaled buffered and async round (no panic; a non-2xx
# reply leaves the round's reporters, what it holds and the journal
# untouched; a non-finite update, the retired /v1/partial and ?vg=1 among
# the seeds), the pooled-buffer
# steady-state allocation test, the bytes+allocs gate (the streamed sampled
# benchmark over the wire is bit-identical to the in-process trainer, puts
# the closed-form frame bytes on the wire and stays under an absolute
# allocations-per-round ceiling), and the same-bits pins of the ingest
# kernels (shared round frame ≡ encodeRoundFrame, the vector codec's
# finiteness table at every length 0–11 and byte offset 0–7, its big-endian
# byte swap against binary.BigEndian, a fuzz smoke pass holding encode,
# decode and finiteness verdict to the per-element oracle, and a vet of the
# package as compiled for a big-endian target, s390x; DotAdd ≡ Dot + AXPY),
# and the pins of the ingest path that journals what arrived: an accepted
# update frame is its own
# canonical encoding (table, seeded bit patterns and a fuzz smoke pass), an
# update through Handler() on a streamed and on a journaled buffered round
# allocates nothing, nor does a warm /v1/score read of the 100k
# estimator-only cell, and a poll at most once, the hand-formatted acks, the
# excluded reply and the /v1/score reply are json.Encoder's bytes, an escaped
# poll query parses as url.Values does, and X-Digfl-Instance turns over with
# Recover. -count=1 defeats the test cache so the gate re-executes.
verify-wire:
	$(GO) vet ./internal/fednet/ ./internal/tensor/ ./internal/experiments/
	GOARCH=s390x $(GO) vet ./internal/fednet/
	$(GO) test -count=1 -run '$(WIRE_RUN)' $(WIRE_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeUpdateFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzIngestFrameCanonical -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzCoordinatorHandler -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeRoundFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzFrameVecReference -fuzztime 5s ./internal/fednet/

# verify-async runs the asynchronous-federation gate: the buffered-planner
# unit tests (K-of-N quorum cuts, staleness weights with w(0)=1 exact,
# aged-out rejection, deterministic tie-breaks, buffer snapshot round-trip),
# the loopback bit-identity test (async coordinator over real HTTP vs
# AsyncLocalSource, 202-buffered and 409-too_stale wire paths exercised),
# the mid-quorum WAL recovery test (buffered entries grafted back after a
# crash), the composition-refusal and goroutine-leak tests, and the async
# acceptance study (at straggler rate 0.4 the async fold reaches the
# no-fault loss target while sync-drop does not, fresh path bit-identical
# to the streamed reference, rerun deterministic). -count=1 defeats the
# test cache so the gates re-execute.
verify-async:
	$(GO) vet ./internal/hfl/ ./internal/fednet/ ./internal/experiments/ ./internal/robust/
	$(GO) test -count=1 -run '$(ASYNC_RUN)' $(ASYNC_PKGS)

# verify-secure runs the secure-VFL gate under the race detector: the
# encryption kernel's properties (the comb's Hs^r bit-identical to
# big.Int.Exp, one rand.Int draw of at most ⌈|n|/2⌉ bits, textbook and DJN
# ciphertexts interoperating, one table from a raced first use, an Hs-less
# key refused), CRT decryption against the textbook form, the step-4 kernel
# against its term-by-term reference and, residue for residue, against the
# bit-by-bit kernel it replaced (a non-unit column included), the pooled
# additions against their allocating bodies, and Algorithm 3's contracts
# (secure θ/φ equal to the plaintext trainer, closed-form Paillier op counts,
# retries and every worker count bit-identical, step 4's ciphertexts too),
# the Barrett mulMod against the Mul+QuoRem it replaced (six key sizes; edge,
# unreduced and negative operands; every aliasing) plus a fuzz smoke pass,
# the vector decryption's CRT halves against per-element decryption and its
# lowest-index error, and a 3-party epoch's ciphertexts pinned by SHA-256.
# -count=1 defeats the test cache so the gate re-executes.
verify-secure:
	$(GO) vet ./internal/paillier/ ./internal/vfl/
	$(GO) test -race -count=1 -run '$(SECURE_RUN)' $(SECURE_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzMulMod -fuzztime 5s ./internal/paillier/

# verify-engines runs the contribution-engine gate: the cross-engine
# equivalence suite (truncation-disabled GTG/DPVS reproduce the exact
# per-round Shapley value to 1e-9, the golden φ bits and evaluation counts
# of every estimator and engine over the shared kernels, baselines.MR
# bit-identical to the exact engine, 3-seed checkpoint/resume bit-identity
# per engine, Lemma-3 zero rows under partial participation), the fednet
# observer equivalence (every engine observing a loopback run identical to
# the same engine observing the local trainer), the accuracy-vs-cost acceptance
# test (gtg/dpvs recover the exact ranking at Kendall τ >= 0.9 on fewer
# utility evaluations than tmc), and the volatility determinism gate
# (the volatility study rerun bit-identical across 3 seeds).
# -count=1 defeats the test cache so the gates re-execute.
verify-engines:
	$(GO) vet ./internal/shapley/ ./internal/baselines/ ./internal/experiments/ ./internal/fednet/ ./internal/metrics/
	$(GO) test -count=1 -run '$(ENGINES_RUN)' $(ENGINES_PKGS)

# verify-crash runs the crash-safety gate: the deterministic chaos harness
# (seeded coordinator kills at epoch-open/mid-round/epoch-close with WAL
# recovery, on a buffered and on an async run, every
# interrupted run bit-identical to its uninterrupted reference across 3
# seeds and an uninterrupted journaled run indistinguishable from an
# unjournaled one), the WAL replay tests (streamed mid-round graft,
# torn-tail contract at every byte offset of an update record and of a
# close frame, bit-exact close-frame round trip, the journal bytes of a
# scripted buffered / streamed / async run pinned by SHA-256 over 3
# seeds, /1 refusal, a refused
# Recover leaving /v1/score untouched (a running coordinator, and a journal
# holding a retired edge partial), 503-recovering rejoin with a
# goroutine-leak check), the close-path gates (frame size flat in the epoch
# number and O(cohort) when sampled, a constant number of allocations per
# close), the fault-domain collision guard, a fuzz smoke pass over the
# journal decoder (arbitrary bytes must error, never panic), and
# BenchmarkJournalClose (N=64, d=2000, epochs 1 and 60: ns/op, B/op,
# bytes/record). -count=1 defeats the test cache so the kills re-execute.
verify-crash:
	$(GO) vet ./internal/fednet/ ./internal/experiments/ ./internal/faults/
	$(GO) test -count=1 -run '$(CRASH_RUN)' $(CRASH_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -bench JournalClose -benchmem ./internal/fednet/

# verify-adv runs the adversarial-robustness gate: the efficacy test (30%
# sign-flip attackers across 3 seeds — undefended run diverges >=2x while
# the defended run stays within 10% of clean, attackers rank below every
# honest participant by total phi, quarantine bans exactly the attackers,
# and the no-attack defended run is bit-identical to the baseline), the
# attack-simulator determinism tests, the screen/quarantine/Krum unit
# tests, the Σ r contract of the reweighters (Quarantine…/Reweight…: the
# trainer alone divides, every reporter banned freezes θ, Σ r = 0 is the
# MeanStream{} fold over the non-banned, recorded weights = core.Weights(φ),
# Lemma 4 over 3 seeds, a malformed r refused), the wire-level rejection
# tests, and the faults+attacks chaos property test; then the kernels the quarantine's φ dots and weighted
# aggregate run on (AXPY4, AXPYRows, DotRows, MatTVecTo and the streamed
# fold's DotAdd4 against their sequential AXPY/Dot/DotAdd loops, the quarantine, uniform-mean, linear-model and
# engine runs pinned by SHA-256 of their float bits) and a 5 s fuzz pass over
# AXPYRows. -count=1 defeats the test cache so the gate re-executes.
verify-adv:
	$(GO) vet ./internal/adversary/ ./internal/robust/ ./internal/tensor/
	$(GO) test -count=1 -run '$(ADV_RUN)' $(ADV_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzAXPYRows -fuzztime 5s ./internal/tensor/

# verify-reweight runs the gate of the quarantine as a fold admission, under
# the race detector: the canonical reweighted form against the r form
# (φ̂⁺ coefficients scaled by 1/Σ r; bit for bit on a power-of-two |S| with
# no held survivor, within 4|S|+3 ulps otherwise) and the held-last order;
# streamed ≡ buffered reweighted runs in process (flat, sampled with
# dropout; Quarantine and HFLReweighter)
# and over the wire (flat, sampled cohort 64 with dropout, recovered from a
# torn journal), 3 seeds each; the mutant test (a participant banned by an
# epoch's close adds nothing to that epoch's θ, on both paths); Lemma 4 on
# the streamed path; the buffered round only where raw deltas are needed;
# and the efficacy gates, the buffered one and its sampled cohort-64 streamed
# cell. -count=1 defeats the test cache.
verify-reweight:
	$(GO) vet ./internal/hfl/ ./internal/robust/ ./internal/fednet/ ./internal/experiments/
	$(GO) test -race -count=1 -run '$(REWEIGHT_RUN)' $(REWEIGHT_PKGS)
