# Build, test and verification entry points for the digfl module.
# (stdlib-only; no tool dependencies beyond the Go toolchain)

GO ?= go

.PHONY: build test bench loc verify verify-fmt verify-runs verify-faults verify-net verify-adv verify-reweight verify-scale verify-wire verify-crash verify-engines verify-async verify-secure verify-hvp verify-kernels verify-bench bench-workload bench-kernels

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
# package, check the formatting, exercise every concurrent path under the
# race detector, and run every test again under GODEBUG=cpu.fma=off — where
# amd64's math.Exp takes its other sequence and math.FMA runs in software —
# and as GOARCH=386 compiles it — a 32-bit int, portable math, software
# math.FMA and another compiler backend — against the same pins: no bit the
# repository computes may follow the host's FMA or GOARCH. The 386 build also
# takes a 5 s fuzz pass over each decoder of untrusted bytes — the archive
# reader, the journal replay, the update and round frame decoders and
# Handler() — where a 32-bit int meets a u32 length.
# Note: the -race run takes several minutes on small machines; scope it to
# touched packages while iterating ($(GO) test -race ./internal/<pkg>/).
verify:
	$(GO) vet ./...
	$(MAKE) verify-fmt
	$(MAKE) verify-runs
	$(GO) test -race ./...
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -count=1 ./...
	GOARCH=386 $(GO) test -count=1 -run '^$$' -fuzz '^FuzzReadHFL$$' -fuzztime 5s ./internal/logio/
	GOARCH=386 $(GO) test -count=1 -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 5s ./internal/fednet/
	GOARCH=386 $(GO) test -count=1 -run '^$$' -fuzz '^FuzzDecodeUpdateFrame$$' -fuzztime 5s ./internal/fednet/
	GOARCH=386 $(GO) test -count=1 -run '^$$' -fuzz '^FuzzDecodeRoundFrame$$' -fuzztime 5s ./internal/fednet/
	GOARCH=386 $(GO) test -count=1 -run '^$$' -fuzz '^FuzzCoordinatorHandler$$' -fuzztime 5s ./internal/fednet/
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
	$(MAKE) verify-hvp
	$(MAKE) verify-kernels
	$(MAKE) verify-bench

# The -run regex and packages of each verify-* gate below. verify-runs
# checks every alternative of each regex against the tests, fuzz targets,
# benchmarks and examples `go test -list` finds in that gate's packages: an
# alternative that names nothing runs nothing, and passes silently.
FAULTS_RUN = .*Fault.*|.*Crash.*|.*Dropout.*|.*Retr.*|.*Survivor.*|.*Checkpoint.*|.*Resume.*|.*Backoff.*
FAULTS_PKGS = ./internal/faults/ ./internal/hfl/ ./internal/vfl/ ./internal/logio/ ./internal/robust/ ./internal/experiments/
NET_RUN = .*Loopback.*|.*LocalSource.*|.*Straggler.*|.*Retry.*|.*Cancel.*|.*Wire.*|.*Score.*|.*Composition.*|.*ModeOnly.*
NET_PKGS = ./internal/fednet/
SCALE_RUN = .*Sample.*|.*Sampled.*|.*Cohort.*|.*Stream.*|.*MeanFold.*|.*Scale100k.*|.*Retain.*|.*Reclaim.*|.*TotalsOnly.*|.*LongPoll.*|.*RoundCloses.*|.*Lookahead.*
SCALE_PKGS = ./internal/sampling/ ./internal/hfl/ ./internal/core/ ./internal/fednet/ ./internal/vfl/
WIRE_RUN = .*Codec.*|.*Frame.*|.*BenchDriverRequestShapes.*|.*Pool.*|.*SizeClass.*|.*WireCodec.*|.*WireDeterministic.*|.*FiniteVec.*|.*DotAdd.*|.*HandlerAllocs.*|.*ReplyBytes.*|.*RoundQuery.*|.*InstanceHeader.*|.*ArchiveFlippedByte.*|.*ArchiveTornTail.*|FuzzReadHFL|.*WrittenFormat.*|.*NonFiniteBits.*|.*NilVersusEmpty.*|.*LogioImportsNoJSON.*|TestNextLengthBounds|TestNextTorn|TestU32
WIRE_PKGS = ./internal/fednet/ ./internal/tensor/ ./internal/experiments/ ./internal/logio/ ./internal/framing/
ASYNC_RUN = .*Async.*|.*PolyWeight.*|.*Stale.*|.*Buffered.*
ASYNC_PKGS = ./internal/hfl/ ./internal/fednet/ ./internal/experiments/ ./internal/robust/
SECURE_RUN = .*Secure.*|.*Encrypt.*|.*Decrypt.*|.*DotPlain.*|.*AddPlain.*|.*MaskedGradient.*|.*FixedBase.*|.*CRT.*|.*MulMod.*|.*DecryptVec.*
SECURE_PKGS = ./internal/paillier/ ./internal/vfl/
ENGINES_RUN = .*Engine.*|.*Truncation.*|.*Reported.*|.*AllDropped.*|.*Sampler.*|.*Golden.*|.*MRMatchesExact.*|.*Kendall.*|.*Volatility.*|.*RunWrappers.*
ENGINES_PKGS = ./internal/shapley/ ./internal/baselines/ ./internal/experiments/ ./internal/fednet/ ./internal/metrics/ ./internal/hfl/ ./internal/vfl/
CRASH_RUN = .*WAL.*|.*Recover.*|.*Chaos.*|.*DomainsUnique.*
CRASH_PKGS = ./internal/fednet/ ./internal/experiments/ ./internal/faults/
ADV_RUN = .*Adversar.*|.*Tamper.*|.*Quarantine.*|.*Reweight.*|.*PluginShape.*|.*Screen.*|.*Mutate.*|.*Poison.*|.*Fires.*|.*NonFinite.*|.*Reject.*|.*AXPY4.*|.*AXPYRows.*|.*DotRows.*|.*DotAdd4.*|.*MatTVec.*|.*RowKernels.*|.*RoundSums.*
ADV_PKGS = ./internal/adversary/ ./internal/robust/ ./internal/core/ ./internal/hfl/ ./internal/vfl/ ./internal/fednet/ ./internal/experiments/ ./internal/tensor/
REWEIGHT_RUN = TestReweighted.*|TestBannedAtCloseAddsNothing|TestStreamedReweight.*|TestStreamedQuarantine.*|TestCompositionStreamedIsOnePredicate|TestAdversarialEfficacyGate
REWEIGHT_PKGS = ./internal/hfl/ ./internal/robust/ ./internal/fednet/ ./internal/experiments/
HVP_RUN = TestHVPMatchesExplicitHessian|TestHVPMatchesFDOracle|TestHVPSymmetric|TestHVPSharedModelReadOnly|TestSoftmaxHVPAllocs|TestClassLabelsChecked|TestProvidersUseExactHVP|TestLocalHVPConcurrentUse
HVP_PKGS = ./internal/nn/ ./internal/core/
KERNELS_RUN = TestDot4xNMatchesDot|FuzzDot4xN|TestDot4xNShapeMismatchPanics|TestDot8xNMatchesDot|FuzzDot8xN|TestDot8xNShapeMismatchPanics|TestLogSumExp4MatchesScalar|TestLogSumExp8MatchesScalar|FuzzLogSumExp8|TestLogSumExp8ShapeMismatchPanics|TestExpShift4Overflow|TestExpShift8Overflow|TestExpTableMatchesMathExp|TestLogTableMatchesMathLog|FuzzLogSumExp4|TestLogSumExp4ShapeMismatchPanics|TestExpMatchesMathExp|TestExpNearOverflow|TestSpecialInputsTable|TestLogMatchesMathLog|TestLogSubnormal|TestLog1pMatchesMathLog1p|FuzzExp|FuzzLog|TestOneExpSource|TestLogSumExpMatchesExpOfZero|TestSoftmaxTilePathsSameBits|TestSoftmaxHVPAllocs|TestLossScratchStaysOffTheHeap|TestModelsMatchTermByTerm
KERNELS_PKGS = ./internal/tensor/ ./internal/nn/
RUN_GATES = FAULTS NET SCALE WIRE ASYNC SECURE ENGINES CRASH ADV REWEIGHT HVP KERNELS

# check_runs is the shell that fails when an alternative of the -run regex
# $(1) matches no whole test name in packages $(2): an alternative meant to
# match a family of tests says so with .*, and one naming a test that is
# gone fails even where another test's name contains it (FuzzLog and
# FuzzLogSumExp4).
check_runs = set -f; names=$$($(GO) test -list . $(2) | grep -E '^(Test|Fuzz|Benchmark|Example)') || exit 1; \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$names" | grep -qE -- "^($$alt)$$" || { echo "verify-runs: -run alternative '$$alt' matches no whole test name in $(2)"; exit 1; }; \
	done;

verify-runs:
	@$(foreach g,$(RUN_GATES),$(call check_runs,$($(g)_RUN),$($(g)_PKGS)))
	@echo "verify-runs: every -run alternative matches a whole test name"

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
# 64 features × 10 classes, on every kernel path), one four-row block's
# log-sum-exp (4 × 10) and one eight-row logit block (8 × 64 × 10, the
# AVX-512 tile against two AVX2 calls);
# and the buffered round's sums — its weighted
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
	$(GO) test -run '^$$' -benchmem -bench 'Cohort100k|ObserveDots100k|ObserveDeltas64x2000|Dot2000|AXPY2000|DotAdd2000|DotAdd4x2000|MeanFold64x2000|Dot4x2000|MatVec32x2000|AXPYRows64x2000|MatTVec32x2000|LogSumExp4|Dot8xN|SoftmaxLoss|FrameVec2000|IngestUpdate|RoundPollV2|ScoreRead100k' \
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
# Recover. The training-log archive shares the journal's framing
# (internal/framing), and its gate rides here too: format version 3's bytes
# pinned field by field, NaN payloads, −0 and ±Inf in every field and Reported /
# Weights nil vs empty surviving HFL and VFL round trips, a byte flipped at any
# offset of a small archive and a final record torn at every length each
# refused naming the record, no JSON import left in internal/logio, a vet of
# both packages as compiled for s390x, and a fuzz smoke pass over ReadHFL (no
# panic; an accepted input writes back its own bytes). -count=1 defeats the
# test cache so the gate re-executes.
verify-wire:
	$(GO) vet ./internal/fednet/ ./internal/tensor/ ./internal/experiments/ ./internal/framing/ ./internal/logio/
	GOARCH=s390x $(GO) vet ./internal/fednet/ ./internal/framing/ ./internal/logio/
	$(GO) test -count=1 -run '$(WIRE_RUN)' $(WIRE_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeUpdateFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzIngestFrameCanonical -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzCoordinatorHandler -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeRoundFrame -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzFrameVecReference -fuzztime 5s ./internal/fednet/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzReadHFL -fuzztime 5s ./internal/logio/

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
# attack-simulator determinism tests, the screen/quarantine unit
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

# verify-hvp runs the gate of the exact Hessian-vector products Algorithm 1
# consumes, under the race detector: the softmax closed form and the CNN
# R-operator pass against an explicit Hessian from central differences
# of Grad and against the finite-difference oracle, symmetry uᵀ(Hv) =
# vᵀ(Hu), eight goroutines on one shared model leaving its parameters
# bit-unchanged, the softmax product's one allocation, the class-label
# check, and core's LocalHVP / TrainHVP handing back the model's own product
# from concurrent calls. -count=1 defeats the test cache.
verify-hvp:
	$(GO) test -race -count=1 -run '$(HVP_RUN)' $(HVP_PKGS)

# verify-kernels runs the gate of the repository's assembly kernels, all
# under the softmax model: tensor.Dot8xN and Dot4xN, its logit blocks with
# their biases, and LogSumExp8, LogSumExp4, ExpShift8 and ExpShift4, its
# normaliser and softmax, every block class-major, on three paths — the
# AVX-512F kernels (eight rows), the AVX2+FMA3 ones (four rows) and the
# portable loops, forced by the tests themselves. Every path is held bit for
# bit to Dot plus the bias (lengths 0–70, 1–12 classes for four rows and
# 1–17 for eight, ±0, subnormals, ±Inf, Inf−Inf, NaN payloads, in the
# operands and the biases) and to LogSumExp and tensor.Exp (1–17 classes;
# ±0, subnormal and underflowing exps, ±Inf, Inf−Inf, NaN payloads; exp over
# [−746, 709.75] on four lanes and eight, log over [1, 64]); the softmax
# Loss, Grad, HVP and Predict give the same bits on every path for 1–17 rows
# (0 and 1 allocations) — under the race detector. tensor's own Exp, Log
# and Log1p are held to math's on finite arguments (Log's and Log1p's in
# their domain): Log and Log1p bit for bit on amd64, Exp bit for bit where
# math.Exp runs the FMA sequence and within two ulps elsewhere,
# subnormal logs scaled first; Exp within an ulp of eˣ where math.Exp
# overflows early; NaNs, ±0, ±Inf and out-of-domain arguments against a
# table of the documented results; and no file but theirs calls math's
# (TestOneExpSource). Then 5 s fuzz passes of each kernel and of Exp and
# Log; go vet (asmdecl) on amd64 and of the portable build for arm64 and
# 386; and no fused multiply-add in any function of the module but the
# math.FMA calls of its source — every package and its tests,
# digfl-bench's and the experiments, fednet, shapley and hfl test binaries'
# code among them, read from the compiled packages (go list -export) — as
# arm64, ppc64le, riscv64 and s390x compile them: each compiled copy of a
# function has exactly as many as its source has math.FMA calls (FMA_CALLS;
# tensor.Exp's ten), and every other function none, which the float64(x*y)
# roundings forbid. FUSED_OPS is a fused multiply-add or -subtract as go
# tool objdump prints it: FMADDD on arm64 and riscv64, FMADD on ppc64le,
# MADBR or WFMADB on s390x. -count=1 defeats the test cache.
FUSED_OPS = [[:space:]](FN?M(ADD|SUB)[DS]?|M[AS][DE]BR?|[VW]FN?M[AS][DS]B)[[:space:]]
FUSED_ARCHES = arm64 ppc64le riscv64 s390x
# FMA_CALLS prints "digfl/<package>.<function> <n>" for every function
# (methods are not named so, and fail the scan) whose source, comments
# aside, calls math.FMA n times.
FMA_CALLS = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' | while read -r f; do \
		d=$$(dirname "$$f"); \
		awk -v pkg="digfl$${d\#.}" '{ sub(/\/\/.*/, "") } \
			/^func / { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[[(].*/, "", fn) } \
			{ n = gsub(/math\.FMA\(/, "&"); if (n) c[fn] += n } \
			END { for (f in c) print pkg "." f, c[f] }' "$$f"; \
	done
# FUSED_SCAN reads the allowed counts, then go tool objdump's listing, and
# prints each function copy whose fused multiply-adds are not its allowed
# count, then "functions fused-multiply-adds mismatches".
FUSED_SCAN = awk -v re='$(FUSED_OPS)' ' \
	function check() { if (fn != "" && n != allow[fn] + 0) { print fn ": " n " fused multiply-adds, " allow[fn] + 0 " math.FMA calls"; bad++ } } \
	NR == FNR { allow[$$1] = $$2; next } \
	/^TEXT / { check(); fn = $$2; sub(/\(SB\)$$/, "", fn); n = 0; syms++; next } \
	$$0 ~ re { n++; fused++ } \
	END { check(); print syms + 0, fused + 0, bad + 0 }'
verify-kernels:
	$(GO) vet ./internal/tensor/ ./internal/nn/
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/
	GOARCH=386 $(GO) vet ./internal/tensor/ ./internal/nn/
	$(GO) test -race -count=1 -run '$(KERNELS_RUN)' $(KERNELS_PKGS)
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDot4xN -fuzztime 5s ./internal/tensor/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzLogSumExp4 -fuzztime 5s ./internal/tensor/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDot8xN -fuzztime 5s ./internal/tensor/
	$(GO) test -count=1 -run '^$$' -fuzz FuzzLogSumExp8 -fuzztime 5s ./internal/tensor/
	$(GO) test -count=1 -run '^$$' -fuzz '^FuzzExp$$' -fuzztime 5s ./internal/tensor/
	$(GO) test -count=1 -run '^$$' -fuzz '^FuzzLog$$' -fuzztime 5s ./internal/tensor/
	@dir=$$(mktemp -d) && trap 'rm -rf '"$$dir" EXIT && \
	{ $(FMA_CALLS); } > $$dir/allow || exit 1; \
	for arch in $(FUSED_ARCHES); do \
		pkgs=$$(GOARCH=$$arch $(GO) list -export -test -f '{{if .Export}}{{.Export}}{{end}}' ./...) || exit 1; \
		for a in $$pkgs; do $(GO) tool objdump -s '^digfl' $$a || exit 1; done > $$dir/dis || exit 1; \
		$(FUSED_SCAN) $$dir/allow $$dir/dis > $$dir/scan || exit 1; \
		set -- $$(tail -n 1 $$dir/scan); syms=$$1; fused=$$2; bad=$$3; \
		if [ "$$syms" -lt 1000 ] || [ "$$fused" -eq 0 ] || [ "$$bad" -ne 0 ]; then \
			echo "verify-kernels: $$arch: $$syms functions, $$fused fused multiply-adds, $$bad functions off their math.FMA count (want ≥ 1000, > 0, 0)"; \
			head -n -1 $$dir/scan | head; exit 1; \
		fi; \
		echo "verify-kernels: $$arch: $$syms functions, tests included; $$fused fused multiply-adds, each a math.FMA call of the source ($$(tr '\n' ' ' < $$dir/allow))"; \
	done

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
