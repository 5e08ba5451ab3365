/**
 * @file
 * The two serving workloads: BLS12-381 verification traffic (an equal
 * BLS / KZG / Groth16 mix) through one ServeEngine.
 *
 * serve_clean   closed loop at saturation (every batch full), then an
 *               open loop at a fixed absolute rate low enough that no
 *               backlog forms. Throughput from the first phase,
 *               latency (due time -> verdict) from the second.
 * serve_hostile the same mix at saturation with two fixed shares of bad
 *               requests: tampered requests that bisection must
 *               isolate, and BLS signatures moved off G1 by a point of
 *               the cofactor subgroup (sigma + [r]R). The second kind
 *               verifies as Accept today because the serving path does
 *               no subgroup check; those verdicts are the run's
 *               `failed` operations (Boyd & Pavlovski, ASIACRYPT 2000).
 *
 * Traffic comes in rounds of three full batches with a fixed layout
 * (kind and role of every slot); the seed decides only the
 * cryptographic contents. So every batch costs the same number of
 * Miller loops on every seed, and `failed` is the same share of
 * `attempted` in every run. All requests are built before any timed
 * phase starts.
 */
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "serve/engine.h"
#include "serve/workload.h"

using namespace finesse;

namespace perfbench {

namespace {

constexpr const char *kCurve = "BLS12-381";
constexpr int kBatch = 16;           ///< the engine's default batch size
constexpr int kRound = 3 * kBatch;   ///< 16 BLS + 16 KZG + 16 Groth16
constexpr int kLanes = 2;            ///< verifier lanes
constexpr int kWindow = 6 * kBatch;  ///< closed-loop requests outstanding
constexpr double kOpenRate = 60.0;   ///< open-loop requests per second
/// Closed-loop pool sizing (requests per second of run); the pool is
/// cycled if the engine outruns it. About 1.3x today's throughput.
constexpr double kCleanPoolRate = 600.0;
constexpr double kHostilePoolRate = 150.0;
constexpr int kSetupReps = 15;
constexpr size_t kRateWindow = 4 * kRound; ///< closed-loop rate window
constexpr int kFactoryStreams = 4;   ///< independent request streams
constexpr int kMalleatedPerRound = 4;
constexpr uint64_t kMalleatedSeed = 0xbadc0de; ///< seed-independent

enum class Role
{
    Valid,
    Tampered,  ///< WorkloadFactory corruption: must be Reject
    Malleated, ///< sigma + [r]R off G1: must be Reject (known fault)
};

struct Slot
{
    RequestKind kind;
    Role role;
};

struct Item
{
    VerifyRequest req;
    Role role = Role::Valid;
};

/**
 * Kind and role of each slot of one round. Kinds cycle BLS, KZG, zk
 * through the round, so batch b holds six of kind b and five of each
 * other kind. Hostile rounds put one tampered request in slot 7 of
 * every batch (one of each kind over the round) and malleate the
 * first BLS slot of every batch plus the last BLS slot of batch 0.
 */
std::vector<Slot>
roundLayout(bool hostile)
{
    const RequestKind kinds[3] = {RequestKind::Bls, RequestKind::Kzg,
                                  RequestKind::Zk};
    std::vector<Slot> slots;
    for (int i = 0; i < kRound; ++i)
        slots.push_back({kinds[i % 3], Role::Valid});
    if (!hostile)
        return slots;
    for (int b = 0; b < 3; ++b) {
        slots[b * kBatch + 7].role = Role::Tampered;
        std::vector<int> bls;
        for (int i = b * kBatch; i < (b + 1) * kBatch; ++i) {
            if (slots[i].kind == RequestKind::Bls &&
                slots[i].role == Role::Valid)
                bls.push_back(i);
        }
        slots[bls.front()].role = Role::Malleated;
        if (b == 0)
            slots[bls.back()].role = Role::Malleated;
    }
    return slots;
}

/**
 * BLS requests whose signature is sigma + T with T = [r]R for a point
 * R of E(Fp) outside G1: T is a nonzero point of cofactor order, so
 * sigma + T is on the curve but not in G1. Built from a fixed seed.
 */
std::vector<VerifyRequest>
malleatedRequests(const CurveSystem12 &sys)
{
    WorkloadFactory factory(sys, kMalleatedSeed);
    const CurveCtx<Fp> &g1c = sys.g1Curve();
    const FpCtx *fp = &sys.fpCtx();
    Rng rng(kMalleatedSeed);
    std::vector<VerifyRequest> out;
    for (u64 start = 1; out.size() < kMalleatedPerRound; start += 7) {
        const AffinePt<Fp> r = findPoint<Fp>(
            g1c, sys.info().p,
            [&](u64 i) { return Fp::fromInt(fp, static_cast<i64>(i)); },
            [&] {
                return Fp::fromBig(fp,
                                   BigInt::randomBelow(rng, sys.info().p));
            },
            start);
        const AffinePt<Fp> t = scalarMul(g1c, r, sys.info().r);
        if (t.infinity)
            continue; // R happened to lie in G1
        BlsRequest req = std::get<BlsRequest>(
            factory.make(RequestKind::Bls, false));
        req.signature = affineAdd(g1c, req.signature, t);
        FINESSE_REQUIRE(isOnCurve(g1c, req.signature) &&
                            !scalarMul(g1c, req.signature, sys.info().r)
                                 .infinity,
                        "malleated signature must be on E, not in G1");
        out.push_back(req);
    }
    return out;
}

/**
 * @p rounds rounds of @p layout. Round k comes from request stream
 * k % kFactoryStreams, each stream one WorkloadFactory (so one KZG
 * setup and one Groth16 key per stream, shared by its batches as by
 * production traffic against one SRS or circuit). Streams are built
 * on up to @p threads threads; the result does not depend on it.
 */
std::vector<Item>
buildRounds(const CurveSystem12 &sys, uint64_t seed, uint64_t salt,
            int rounds, const std::vector<Slot> &layout,
            const std::vector<VerifyRequest> &malleated, unsigned threads)
{
    std::vector<Item> items(static_cast<size_t>(rounds) * kRound);
    auto buildStream = [&](int stream) {
        WorkloadFactory factory(sys, mixSeed(seed, salt + stream));
        for (int k = stream; k < rounds; k += kFactoryStreams) {
            size_t nextMalleated = 0;
            for (int i = 0; i < kRound; ++i) {
                Item &it = items[static_cast<size_t>(k) * kRound + i];
                it.role = layout[i].role;
                if (it.role == Role::Malleated)
                    it.req = malleated[nextMalleated++];
                else
                    it.req = factory.make(layout[i].kind,
                                          it.role == Role::Tampered);
            }
        }
    };
    std::vector<std::thread> pool;
    const int n = static_cast<int>(
        std::max(1u, std::min<unsigned>(threads, kFactoryStreams)));
    for (int t = 0; t < n; ++t) {
        pool.emplace_back([&, t] {
            for (int s = t; s < kFactoryStreams; s += n)
                buildStream(s);
        });
    }
    for (std::thread &th : pool)
        th.join();
    return items;
}

/** Pairing sanity at set-up: bilinearity and non-degeneracy. */
void
checkPairing(const CurveSystem12 &sys, uint64_t seed, Report &rep)
{
    Rng rng(mixSeed(seed, 7));
    const AffinePt<Fp> p = sys.randomG1(rng);
    const AffinePt<Fp2> q = sys.randomG2(rng);
    const BigInt &r = sys.info().r;
    const BigInt a = BigInt::randomBelow(rng, r - BigInt(u64{1})) +
                     BigInt(u64{1});
    const BigInt b = BigInt::randomBelow(rng, r - BigInt(u64{1})) +
                     BigInt(u64{1});
    const Fp12 base = sys.pair(p, q);
    const Fp12 lhs = sys.pair(scalarMul(sys.g1Curve(), p, a),
                              scalarMul(sys.twistCurve(), q, b));
    const Fp12 rhs = sys.gtPow(base, (a * b).mod(r));
    if (!lhs.equals(rhs))
        rep.fail("pairing is not bilinear: e([a]P,[b]Q) != e(P,Q)^(ab)");
    if (base.equals(Fp12::one(sys.tower().gtCtx())))
        rep.fail("pairing is degenerate: e(P,Q) == 1");
}

/** The serving stack a workload runs on. */
struct ServeSetup
{
    std::unique_ptr<CurveSystem12> sys;
    std::unique_ptr<ServeEngine> engine;
};

/**
 * Fresh curve-system construction plus engine start, repeated: one
 * construction is ~0.1 s, too short to time alone, so the median of
 * several is the set-up time. The last repetition serves the run.
 */
ServeSetup
setUp(Report &rep)
{
    ServeOptions sopt;
    sopt.jobs = kLanes;
    ServeSetup s;
    std::vector<double> times;
    for (int i = 0; i < kSetupReps; ++i) {
        s.engine.reset();
        s.sys.reset();
        ScopedSpan span("setup.serve", static_cast<uint64_t>(i));
        const auto t0 = Clock::now();
        s.sys = std::make_unique<CurveSystem12>(findCurve(kCurve));
        s.engine = std::make_unique<ServeEngine>(*s.sys, sopt);
        times.push_back(secondsSince(t0));
    }
    rep.addE2e("setup_s", median(times), "s");
    return s;
}

/** What one loop measured. */
struct LoopResult
{
    std::vector<double> latencyMs;
    /// Closed loop: windows of kRateWindow submissions, each with its
    /// start (s since the first submit) and the host's CPU steal ticks
    /// then; one extra entry closes the last window.
    std::vector<double> windowStart;
    std::vector<uint64_t> windowSteal;
    double seconds = 0;   ///< first submit -> last verdict
    uint64_t submitted = 0;
    double latenessP99Ms = 0; ///< open loop: send time behind schedule
    double latenessMaxMs = 0;
};

/**
 * Submit side on the calling thread, verdict collection on one more
 * thread. Closed loop (@p rate == 0): keep kWindow requests
 * outstanding and submit whole rounds of @p items (cycled) until
 * @p seconds have passed. Open loop: submit every item once, item i
 * due at i / rate; latency counts from the due time. Each verdict is
 * checked against the role its request was built with.
 */
LoopResult
runLoop(ServeEngine &engine, const std::vector<Item> &items,
        double seconds, double rate, Report &rep)
{
    struct InFlight
    {
        std::future<Verdict> verdict;
        Clock::time_point ref;         ///< latency origin
        Clock::time_point submitStart, submitEnd;
        size_t item;
        uint64_t seq;
    };
    std::mutex mu;
    std::condition_variable cv; ///< new in-flight entry / completions
    std::deque<InFlight> incoming;
    bool producerDone = false;
    uint64_t completed = 0;

    LoopResult res;
    Clock::time_point lastVerdict;
    uint64_t mismatches = 0, knownFaults = 0, busy = 0;
    const auto t0 = Clock::now();
    std::thread collector([&] {
        std::vector<InFlight> pending;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] {
                    return !incoming.empty() || producerDone ||
                           !pending.empty();
                });
                for (InFlight &f : incoming)
                    pending.push_back(std::move(f));
                incoming.clear();
                if (pending.empty() && producerDone)
                    return;
            }
            if (pending.empty())
                continue;
            // Poll: lanes finish out of order, so take every verdict
            // that is ready. The open loop spins: on a virtual machine
            // a sleeping thread can wake milliseconds late, which would
            // add to ~20 ms latencies. The closed loop's latencies are
            // hundreds of ms, so it waits up to 1 ms on the oldest.
            if (rate == 0)
                pending.front().verdict.wait_for(
                    std::chrono::milliseconds(1));
            const auto now = Clock::now();
            uint64_t done = 0;
            for (size_t i = 0; i < pending.size();) {
                InFlight &f = pending[i];
                if (f.verdict.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                const Verdict v = f.verdict.get();
                const Role role = items[f.item].role;
                if (role == Role::Malleated && v == Verdict::Accept)
                    ++knownFaults;
                else if ((v == Verdict::Accept) != (role == Role::Valid))
                    ++mismatches;
                res.latencyMs.push_back(secondsBetween(f.ref, now) * 1e3);
                if (Tracer::get().enabled()) {
                    Tracer &tr = Tracer::get();
                    const long req = tr.record("serve.request", f.seq,
                                               f.ref, now, -1);
                    tr.record("serve.submit", f.seq, f.submitStart,
                              f.submitEnd, req);
                }
                lastVerdict = now;
                ++done;
                pending[i] = std::move(pending.back());
                pending.pop_back();
            }
            if (done) {
                std::lock_guard<std::mutex> lock(mu);
                completed += done;
                cv.notify_all();
            }
        }
    });

    std::vector<double> latenessMs;
    auto markWindow = [&] {
        res.windowStart.push_back(secondsSince(t0));
        res.windowSteal.push_back(readStealTicks());
    };
    auto submitOne = [&](size_t item, Clock::time_point ref) {
        if (rate == 0 && res.submitted % kRateWindow == 0)
            markWindow();
        InFlight f;
        f.submitStart = Clock::now();
        Admission adm = engine.submit(items[item].req);
        f.submitEnd = Clock::now();
        if (!adm.admitted) {
            ++busy;
            return;
        }
        f.verdict = std::move(adm.verdict);
        f.ref = ref;
        f.item = item;
        f.seq = res.submitted++;
        std::lock_guard<std::mutex> lock(mu);
        incoming.push_back(std::move(f));
        cv.notify_all();
    };
    if (rate == 0) {
        const size_t rounds = items.size() / kRound;
        for (size_t k = 0; secondsSince(t0) < seconds; ++k) {
            for (size_t i = 0; i < kRound; ++i) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] {
                        return res.submitted - completed < kWindow;
                    });
                }
                submitOne((k % rounds) * kRound + i, Clock::now());
            }
        }
    } else {
        for (size_t i = 0; i < items.size(); ++i) {
            const auto due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rate));
            while (Clock::now() < due) {
                // Spin rather than sleep, for the reason given above:
                // the generator must send on time.
            }
            latenessMs.push_back(secondsSince(due) * 1e3);
            submitOne(i, due);
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        producerDone = true;
        cv.notify_all();
    }
    collector.join();
    if (rate == 0)
        markWindow();

    res.seconds = secondsBetween(t0, lastVerdict);
    if (!latenessMs.empty()) {
        res.latenessP99Ms = quantile(latenessMs, 0.99);
        res.latenessMaxMs =
            *std::max_element(latenessMs.begin(), latenessMs.end());
    }
    rep.attempted += res.submitted + busy;
    rep.failed += knownFaults;
    if (busy != 0)
        rep.fail(std::to_string(busy) + " requests bounced as busy");
    if (mismatches != 0)
        rep.fail(std::to_string(mismatches) +
                 " verdicts differ from the answer fixed at build time");
    return res;
}

/**
 * Closed-loop throughput over the quieter half of the loop's windows:
 * those whose host CPU steal (from /proc/stat) is at most the median
 * window's. On a shared host other tenants' load comes and goes within
 * seconds and moves a whole-run average by 15% and more between runs;
 * selecting windows on the steal they saw, not on their own speed,
 * leaves that out without a bias toward fast windows. Falls back to
 * the whole-run rate when the loop is too short to have windows.
 */
double
quietRate(const LoopResult &res)
{
    if (res.windowStart.size() < 6)
        return static_cast<double>(res.submitted) / res.seconds;
    // Leave out the first window (the ramp-up) and the last one, which
    // the final entry closes early.
    const size_t windows = res.windowStart.size() - 2;
    std::vector<double> steal;
    for (size_t w = 1; w < windows; ++w)
        steal.push_back(static_cast<double>(res.windowSteal[w + 1] -
                                            res.windowSteal[w]));
    const double cut = quantile(steal, 0.5);
    double seconds = 0;
    size_t requests = 0;
    for (size_t w = 1; w < windows; ++w) {
        if (steal[w - 1] <= cut) {
            seconds += res.windowStart[w + 1] - res.windowStart[w];
            requests += kRateWindow;
        }
    }
    return static_cast<double>(requests) / seconds;
}

/**
 * The native ladder (traced run only): times calls into each layer's
 * public functions on this run's inputs, and replays clean batches
 * step by step from outside -- reduce, RLC scalar multiplication,
 * batch affine conversion, G2-base merge, Miller loops, final
 * exponentiation -- so each step is a span under its batch.
 */
void
nativeLadder(const CurveSystem12 &sys, const std::vector<Item> &round,
             uint64_t seed, Report &rep)
{
    ScopedSpan ladder("ladder.native");
    Rng rng(mixSeed(seed, 11));
    const FpCtx *fp = &sys.fpCtx();
    const MontCtx &mont = fp->mont;
    volatile u64 sink = 0;

    {
        Residue a = mont.toMont(BigInt::randomBelow(rng, sys.info().p));
        const Residue b =
            mont.toMont(BigInt::randomBelow(rng, sys.info().p));
        const int n = 200000;
        const double s = timeSpan("bigint.mont_mul", 0, [&] {
            for (int i = 0; i < n; ++i)
                mont.mul(a, a, b);
        });
        sink = sink + a[0];
        rep.addLayer("bigint.mont_mul_ns", s / n * 1e9, "ns");
    }
    auto randFp = [&] {
        return Fp::fromBig(fp, BigInt::randomBelow(rng, sys.info().p));
    };
    {
        Fp x = randFp();
        const Fp y = randFp();
        const int n = 200000;
        double s = timeSpan("field.fp_mul", 0, [&] {
            for (int i = 0; i < n; ++i)
                x = x.mul(y);
        });
        rep.addLayer("field.fp_mul_ns", s / n * 1e9, "ns");
        s = timeSpan("field.fp_sqr", 0, [&] {
            for (int i = 0; i < n; ++i)
                x = x.sqr();
        });
        rep.addLayer("field.fp_sqr_ns", s / n * 1e9, "ns");
        const int ninv = 5000;
        s = timeSpan("field.fp_inv", 0, [&] {
            for (int i = 0; i < ninv; ++i)
                x = x.inv().add(y);
        });
        rep.addLayer("field.fp_inv_ns", s / ninv * 1e9, "ns");
        sink = sink + x.raw()[0];
    }
    auto randCoeffs = [&](int n) {
        std::vector<BigInt> c;
        for (int i = 0; i < n; ++i)
            c.push_back(BigInt::randomBelow(rng, sys.info().p));
        return c;
    };
    {
        const std::vector<BigInt> ca = randCoeffs(2), cb = randCoeffs(2);
        auto ia = ca.begin(), ib = cb.begin();
        Fp2 x = Fp2::fromFpCoeffs(sys.tower().ftCtx(), ia);
        const Fp2 y = Fp2::fromFpCoeffs(sys.tower().ftCtx(), ib);
        const int n = 50000;
        const double s = timeSpan("field.fp2_mul", 0, [&] {
            for (int i = 0; i < n; ++i)
                x = x.mul(y);
        });
        rep.addLayer("field.fp2_mul_ns", s / n * 1e9, "ns");
    }
    {
        const std::vector<BigInt> ca = randCoeffs(12), cb = randCoeffs(12);
        auto ia = ca.begin(), ib = cb.begin();
        Fp12 x = Fp12::fromFpCoeffs(sys.tower().gtCtx(), ia);
        const Fp12 y = Fp12::fromFpCoeffs(sys.tower().gtCtx(), ib);
        const int n = 2000;
        double s = timeSpan("field.fp12_mul", 0, [&] {
            for (int i = 0; i < n; ++i)
                x = x.mul(y);
        });
        rep.addLayer("field.fp12_mul_us", s / n * 1e6, "us");
        s = timeSpan("field.fp12_sqr", 0, [&] {
            for (int i = 0; i < n; ++i)
                x = x.sqr();
        });
        rep.addLayer("field.fp12_sqr_us", s / n * 1e6, "us");
    }

    // Replayed batches: each of the round's three batches, as
    // verifyBatchRLC evaluates it, one span per step.
    const CurveCtx<Fp> &g1c = sys.g1Curve();
    const Fp12 one = Fp12::one(sys.tower().gtCtx());
    std::vector<std::vector<PairingCheck>> batchChecks(3);
    size_t requests = 0;
    for (int b = 0; b < 3; ++b) {
        ScopedSpan batch("serve.replay_batch", static_cast<uint64_t>(b));
        std::vector<PairingCheck> &checks = batchChecks[b];
        for (int i = 0; i < kBatch; ++i) {
            ScopedSpan s("serve.reduce", static_cast<uint64_t>(b));
            checks.push_back(reduceToCheck(sys, round[b * kBatch + i].req));
        }
        requests += checks.size();
        std::vector<JacPt<Fp>> scaled;
        std::vector<const AffinePt<Fp2> *> g2s;
        for (const PairingCheck &c : checks) {
            const BigInt r = BigInt::randomBits(rng, 128);
            for (const PairTerm &t : c.terms) {
                ScopedSpan s("curve.g1_mul128", static_cast<uint64_t>(b));
                scaled.push_back(scalarMulJac(g1c, t.g1, r));
                g2s.push_back(&t.g2);
            }
        }
        std::vector<AffinePt<Fp>> affine;
        {
            ScopedSpan s("curve.g1_to_affine_batch",
                         static_cast<uint64_t>(b));
            affine = jacToAffineBatch(scaled, fp);
        }
        std::vector<std::pair<AffinePt<Fp>, AffinePt<Fp2>>> merged;
        {
            ScopedSpan s("serve.merge", static_cast<uint64_t>(b));
            std::vector<const AffinePt<Fp2> *> bases;
            std::vector<JacPt<Fp>> sums;
            for (size_t i = 0; i < affine.size(); ++i) {
                size_t k = 0;
                while (k < bases.size() && !bases[k]->equals(*g2s[i]))
                    ++k;
                if (k == bases.size()) {
                    bases.push_back(g2s[i]);
                    sums.push_back(JacPt<Fp>::fromAffine(affine[i], fp));
                } else {
                    sums[k] = jacAddAffine(sums[k], affine[i], fp);
                }
            }
            const auto sumsAffine = jacToAffineBatch(sums, fp);
            for (size_t k = 0; k < sumsAffine.size(); ++k) {
                if (!sumsAffine[k].infinity)
                    merged.emplace_back(sumsAffine[k], *bases[k]);
            }
        }
        Fp12 f = one;
        for (const auto &[p, q] : merged) {
            Fp12 m;
            {
                ScopedSpan s("pairing.miller", static_cast<uint64_t>(b));
                m = sys.engine().miller(p.x, p.y, q.x, q.y);
            }
            ScopedSpan s("field.fp12_accumulate", static_cast<uint64_t>(b));
            f = f.mul(m);
        }
        Fp12 e;
        {
            ScopedSpan s("pairing.final_exp", static_cast<uint64_t>(b));
            e = sys.engine().finalExp(f);
        }
        Fp12 product;
        {
            ScopedSpan s("pairing.product", static_cast<uint64_t>(b));
            product = sys.pairProduct(merged);
        }
        if (!e.equals(one) || !product.equals(one))
            rep.fail("replayed clean batch does not verify");
    }
    const Tracer &tr = Tracer::get();
    rep.addLayer("curve.g1_mul128_us",
                 tr.meanSeconds("curve.g1_mul128") * 1e6, "us");
    rep.addLayer("curve.g1_to_affine_batch_us",
                 tr.meanSeconds("curve.g1_to_affine_batch") * 1e6, "us");
    rep.addLayer("pairing.miller_ms", tr.meanSeconds("pairing.miller") * 1e3,
                 "ms");
    rep.addLayer("pairing.product_ms",
                 tr.meanSeconds("pairing.product") * 1e3, "ms");
    rep.addLayer("pairing.final_exp_ms",
                 tr.meanSeconds("pairing.final_exp") * 1e3, "ms");
    rep.addLayer("serve.reduce_us", tr.meanSeconds("serve.reduce") * 1e6,
                 "us");

    // The library's own entry points on the same batches.
    double rlc = 0;
    for (int b = 0; b < 3; ++b) {
        std::vector<const PairingCheck *> ptrs;
        for (const PairingCheck &c : batchChecks[b])
            ptrs.push_back(&c);
        rlc += timeSpan("serve.rlc_batch", 0, [&] {
            if (!verifyBatchRLC(sys, ptrs, mixSeed(seed, 20 + b)))
                rep.fail("verifyBatchRLC rejects a clean batch");
        });
    }
    rep.addLayer("serve.rlc_batch_ms", rlc / 3 * 1e3, "ms");

    // One tampered request in an otherwise clean batch.
    WorkloadFactory factory(sys, mixSeed(seed, 30));
    std::vector<PairingCheck> dirty = batchChecks[0];
    dirty[5] = reduceToCheck(sys, factory.make(RequestKind::Kzg, true));
    BatchVerifyStats bisect;
    const double bisectS = timeSpan("serve.bisect_batch", 0, [&] {
        const std::vector<bool> v =
            verifyBatch(sys, dirty, mixSeed(seed, 31), &bisect);
        for (size_t i = 0; i < v.size(); ++i) {
            if (v[i] != (i != 5))
                rep.fail("verifyBatch misplaces the tampered request");
        }
    });
    rep.addLayer("serve.bisect_batch_ms", bisectS * 1e3, "ms");

    double single = 0;
    for (int b = 0; b < 3; ++b) {
        single += timeSpan("serve.single", b, [&] {
            for (const PairingCheck &c : batchChecks[b]) {
                if (!verifySingle(sys, c))
                    rep.fail("verifySingle rejects a valid request");
            }
        }) / kBatch;
    }
    rep.addLayer("serve.single_ms", single / 3 * 1e3, "ms");
    rep.note("ladder_requests", static_cast<double>(requests));
    (void)sink;
}

/** Per-batch engine counters of a closed-loop phase. */
void
engineCounters(const ServeCounters &c, Report &rep)
{
    const double batches = static_cast<double>(std::max<size_t>(1, c.batches));
    const double done = static_cast<double>(std::max<size_t>(1, c.completed));
    rep.addLayer("serve.batch_size_mean", c.completed / batches, "count");
    rep.addLayer("serve.miller_per_request", c.pairings / done, "count");
    rep.addLayer("serve.products_per_batch", c.products / batches, "count");
    rep.addLayer("serve.bisect_splits", c.bisectSplits / batches, "count");
}

void
runServe(const RunOptions &opt, bool hostile, Report &rep)
{
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    ServeSetup s = setUp(rep);
    const CurveSystem12 &sys = *s.sys;
    checkPairing(sys, opt.seed, rep);

    // Phase lengths: serve_clean spends half its time in each loop;
    // serve_hostile is all closed loop.
    const double closedSeconds = hostile ? opt.seconds : opt.seconds / 2;
    const double poolRate = hostile ? kHostilePoolRate : kCleanPoolRate;
    const int closedRounds = std::max(
        1, static_cast<int>(closedSeconds * poolRate / kRound + 0.5));
    const std::vector<VerifyRequest> malleated =
        hostile ? malleatedRequests(sys) : std::vector<VerifyRequest>{};
    const auto tGen = Clock::now();
    const std::vector<Item> pool =
        buildRounds(sys, opt.seed, 0, closedRounds, roundLayout(hostile),
                    malleated, threads);
    std::vector<Item> open;
    if (!hostile) {
        const int openRounds = static_cast<int>(
            (opt.seconds - closedSeconds) * kOpenRate / kRound + 0.999);
        open = buildRounds(sys, opt.seed, 100, openRounds,
                           roundLayout(false), malleated, threads);
    }
    std::fprintf(stderr, "inputs: %zu closed-loop + %zu open-loop requests "
                 "built in %.2f s\n", pool.size(), open.size(),
                 secondsSince(tGen));

    ServeEngine &engine = *s.engine;
    const LoopResult closed = runLoop(engine, pool, closedSeconds, 0, rep);
    const ServeCounters afterClosed = engine.counters();
    const double rps = quietRate(closed);
    rep.addE2e("throughput_per_s", rps, "1/s");
    rep.note("throughput_mean_per_s",
             static_cast<double>(closed.submitted) / closed.seconds);
    std::fprintf(stderr, "closed loop: %llu requests in %.2f s = %.1f/s "
                 "(quiet half %.1f/s), %zu batches\n",
                 static_cast<unsigned long long>(closed.submitted),
                 closed.seconds, closed.submitted / closed.seconds, rps,
                 afterClosed.batches);

    LoopResult lat;
    if (!hostile) {
        lat = runLoop(engine, open, 0, kOpenRate, rep);
        const double p50 = quantile(lat.latencyMs, 0.5);
        const double p99 = quantile(lat.latencyMs, 0.99);
        rep.addLayer("serve.open_p50_ms", p50, "ms");
        rep.addLayer("serve.open_p99_ms", p99, "ms");
        rep.note("open_p50_ms", p50);
        rep.note("open_p99_ms", p99);
        rep.note("open_samples", static_cast<double>(lat.latencyMs.size()));
        std::fprintf(stderr, "open loop: p50 %.2f ms, p99 %.2f ms over %zu "
                     "requests\n", p50, p99, lat.latencyMs.size());
        rep.note("lateness_p99_ms", lat.latenessP99Ms);
        rep.note("lateness_max_ms", lat.latenessMaxMs);
        const ServeCounters all = engine.counters();
        rep.note("open_batch_size_mean",
                 static_cast<double>(all.completed - afterClosed.completed) /
                     static_cast<double>(all.batches - afterClosed.batches));
    }
    s.engine.reset(); // joins the lanes
    rep.addE2e("peak_rss_mb", peakRssMiB(), "MiB");

    if (opt.trace) {
        // The replayed batches must be clean: the closed-loop pool
        // of serve_hostile is not.
        const std::vector<Item> clean =
            hostile ? buildRounds(sys, opt.seed, 200, 1, roundLayout(false),
                                  malleated, threads)
                    : pool;
        nativeLadder(sys, clean, opt.seed, rep);
        engineCounters(afterClosed, rep);
    }
}

} // namespace

void
runServeClean(const RunOptions &opt, Report &rep)
{
    runServe(opt, false, rep);
}

void
runServeHostile(const RunOptions &opt, Report &rep)
{
    runServe(opt, true, rep);
}

} // namespace perfbench
