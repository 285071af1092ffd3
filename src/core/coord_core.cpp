// CoordCore, the coordinator's range protocol: no socket, no clock, no
// publish (see core/coordinator.hpp).

#include <algorithm>
#include <cstdio>

#include "common/io_retry.hpp"
#include "common/store_keys.hpp"
#include "core/coordinator.hpp"
#include "core/store_stats.hpp"

namespace create {

namespace {

/** How long a --once coordinator stays up for a worker whose connection
 *  dropped without `bye`. A live worker reconnects at once (its connect
 *  retry starts without a sleep), so this only covers scheduling delays;
 *  a worker that was killed costs this much at the end of the campaign. */
constexpr double kRejoinGraceSeconds = 2.0;

/** How long a --once coordinator restarted on a store that a fleet wrote
 *  stays up for that fleet. A worker may be asleep in connectRetry's
 *  backoff for up to io::kConnectBackoffCapMs when the restart starts
 *  listening; without this window the first worker back could finish a
 *  nearly complete campaign, say `bye`, and take the coordinator down
 *  under the rest. Twice the cap leaves a margin. */
constexpr double kRestartRejoinSeconds =
    2.0 * io::kConnectBackoffCapMs / 1000.0;

} // namespace

CoordCore::CoordCore(const CoordOptions& opt, ResultStore& store, double now)
    : opt_(opt), store_(store)
{
    opt_.rangeEpisodes = std::max(1, opt_.rangeEpisodes);
    if (opt_.rangeTimeoutSeconds <= 0.0)
        opt_.rangeTimeoutSeconds = 30.0;
    // Worker telemetry in the store means an earlier incarnation had a
    // fleet, which may be reconnecting right now.
    const auto& view = store_.records();
    const auto w = view.upper_bound(sweepWorkerKey(""));
    if (w != view.end() && sweepWorkerId(w->first))
        rejoinUntil_ = now + kRestartRejoinSeconds;
}

bool
CoordCore::receive(int conn, JsonRecord&& rec, double now,
                   std::vector<Frame>& out)
{
    Peer& peer = peers_[conn];
    std::string verb;
    bool boundary = false;
    if (!coordwire::isControl(rec, &verb)) {
        ingestRecord(peer, std::move(rec), now);
    } else if (verb == "hello") {
        peer.worker = rec.text("worker");
        if (peer.worker.empty())
            peer.worker = "conn" + std::to_string(peer.id);
        WorkerStats& ws = workers_[peer.worker];
        if (ws.firstSeen == 0.0)
            ws.firstSeen = now;
        ws.lastSeen = now;
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] conn %d is %s\n", peer.id,
                         peer.worker.c_str());
    } else if (verb == "need") {
        const std::string fp = rec.text("fp");
        const int need = coordwire::wireInt(rec, "need");
        if (!fp.empty() && need >= 1) { // a malformed one is dropped
            peer.declared.insert(fp);
            declareNeed(fp, need);
        }
    } else if (verb == "req") {
        dispatch(peer, now, out);
    } else if (verb == "done") {
        boundary = true;
        const auto it = fps_.find(rec.text("fp"));
        // A malformed field reads -1, which matches no assignment.
        const int start = coordwire::wireInt(rec, "start");
        const int count = coordwire::wireInt(rec, "count");
        if (it != fps_.end()) {
            auto& as = it->second.assigned;
            for (auto a = as.begin(); a != as.end(); ++a) {
                if (a->connId != peer.id || a->start != start ||
                    a->count != count)
                    continue;
                WorkerStats& ws =
                    workers_[peer.worker.empty()
                                 ? "conn" + std::to_string(peer.id)
                                 : peer.worker];
                ++ws.rangesCompleted;
                ws.lastSeen = now;
                ws.rangeWallMs.push_back((now - a->since) * 1000.0);
                as.erase(a);
                break;
            }
        }
        // A `done` for an assignment we already expired is a straggler
        // finishing a re-dispatched range: its episodes were dropped as
        // duplicates, nothing else to do.
    } else if (verb == "fetch") {
        serveFetch(conn, rec, out);
    } else if (verb == "bye") {
        peer.bye = true;
    }
    // Unknown verbs are ignored: newer workers degrade gracefully. What
    // this record freed -- the episode that completes a ledger, a deeper
    // need, a range a timeout re-pools -- goes to the parked peers now.
    answerParked(now, out);
    return boundary;
}

void
CoordCore::ingestRecord(Peer& peer, JsonRecord&& rec, double now)
{
    std::string fp;
    const int idx = sweepEpisodeIndex(rec.name, &fp);
    if (idx >= 0) {
        const auto it = fps_.find(fp);
        bool fresh = false;
        if (it != fps_.end() && idx < it->second.need &&
            !it->second.have[static_cast<std::size_t>(idx)]) {
            it->second.have[static_cast<std::size_t>(idx)] = 1;
            ++it->second.haveCount;
            fresh = true;
        }
        ++episodesIngested_;
        if (!peer.worker.empty()) {
            WorkerStats& ws = workers_[peer.worker];
            ++ws.episodes;
            ws.lastSeen = now;
        }
        // Outstanding assignments of a complete fp stay: the finishing
        // worker's `done` follows its episodes on the wire and must
        // still match to credit its telemetry. Schedulers skip complete
        // fps, so they are inert.
        if (fresh && it->second.complete() && opt_.verbose)
            std::fprintf(stderr, "[coord] %s complete (%d episodes)\n",
                         fp.c_str(), it->second.need);
    }
    // Episodes, ledger meta and anything else a worker would have
    // written locally: the first copy is stored. A straggler's duplicate
    // episode (bit-identical anyway: episodes are deterministic) or a
    // reconnect's re-declared meta would only bloat an append log.
    store_.insert(std::move(rec));
}

void
CoordCore::declareNeed(const std::string& fp, int need)
{
    const auto [it, inserted] = fps_.emplace(fp, FpState{});
    if (inserted)
        fpOrder_.push_back(fp);
    FpState& st = it->second;
    if (need > st.need) {
        st.need = need;
        st.have.resize(static_cast<std::size_t>(need), 0);
    }
    // Seed the bitmap from the store: episodes from earlier campaigns
    // or a pre-restart incarnation of this coordinator count (the
    // gap-fill exactly-once primitive).
    for (int i = 0; i < st.need; ++i) {
        if (st.have[static_cast<std::size_t>(i)])
            continue;
        if (store_.records().count(sweepEpisodeKey(fp, i))) {
            st.have[static_cast<std::size_t>(i)] = 1;
            ++st.haveCount;
        }
    }
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] declared %s need=%d have=%d\n",
                     fp.c_str(), st.need, st.haveCount);
}

void
CoordCore::dispatch(Peer& peer, double now, std::vector<Frame>& out)
{
    expireAssignments(now);
    for (const std::string& fp : fpOrder_) {
        if (!peer.declared.count(fp))
            continue; // never hand a worker a ledger it cannot run
        FpState& st = fps_[fp];
        if (st.complete())
            continue;
        // First episode that is neither stored nor in flight.
        const auto inFlight = [&st](int i) {
            for (const Assignment& a : st.assigned)
                if (i >= a.start && i < a.start + a.count)
                    return true;
            return false;
        };
        int start = -1;
        for (int i = 0; i < st.need; ++i) {
            if (!st.have[static_cast<std::size_t>(i)] && !inFlight(i)) {
                start = i;
                break;
            }
        }
        if (start < 0)
            continue; // everything missing is in flight
        // Range size: the default quantum, shrunk near the tail to a fair
        // share of what no one runs yet, so the last episodes spread
        // across the fleet instead of stranding on one straggler.
        long long unassigned = 0;
        for (const auto& [f, s] : fps_) {
            long long missing = s.complete() ? 0 : s.need - s.haveCount;
            for (const Assignment& a : s.assigned)
                missing -= a.count;
            unassigned += std::max(0LL, missing);
        }
        const long long workers = std::max<long long>(
            1, std::count_if(peers_.begin(), peers_.end(), [](const auto& p) {
                return !p.second.worker.empty();
            }));
        const int chunk = static_cast<int>(std::min<long long>(
            opt_.rangeEpisodes,
            std::max(1LL, (unassigned + workers - 1) / workers)));
        int count = 0;
        for (int i = start; i < st.need && count < chunk; ++i) {
            if (st.have[static_cast<std::size_t>(i)] || inFlight(i))
                break;
            ++count;
        }
        st.assigned.push_back({start, count, peer.id, peer.worker, now});
        ++rangesDispatched_;
        if (!peer.worker.empty()) {
            WorkerStats& ws = workers_[peer.worker];
            ++ws.rangesAssigned;
            ws.lastSeen = now;
        }
        JsonRecord r = coordwire::control("range");
        r.strings.emplace_back("fp", fp);
        r.numbers.emplace_back("start", start);
        r.numbers.emplace_back("count", count);
        out.push_back({peer.id, std::move(r)});
        peer.parked = false;
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] %s <- %s [%d, %d)\n",
                         peer.worker.c_str(), fp.c_str(), start,
                         start + count);
        return;
    }
    // Fin is scoped to what *this* worker declared: its campaign can be
    // complete while a differently-scoped fleet keeps working.
    bool mineComplete = !peer.declared.empty();
    for (const std::string& fp : peer.declared) {
        const auto it = fps_.find(fp);
        mineComplete = mineComplete && it != fps_.end() &&
                       it->second.complete();
    }
    if (mineComplete)
        out.push_back({peer.id, coordwire::control("fin")});
    // Incomplete but nothing to hand out (everything missing is in
    // flight): the request waits for the event that frees work.
    peer.parked = !mineComplete;
}

void
CoordCore::answerParked(double now, std::vector<Frame>& out)
{
    for (auto& [id, peer] : peers_)
        if (peer.parked)
            dispatch(peer, now, out);
}

void
CoordCore::serveFetch(int conn, const JsonRecord& rec,
                      std::vector<Frame>& out)
{
    const std::string fp = rec.text("fp");
    // Never past the deepest need declared here: the scan runs inside
    // the shell's single-threaded poll loop.
    const auto st = fps_.find(fp);
    const int need = std::min(coordwire::wireInt(rec, "need"),
                              st == fps_.end() ? 0 : st->second.need);
    if (need < 0)
        return; // malformed: dropped
    const auto& view = store_.records();
    for (int i = 0; i < need; ++i) {
        const auto it = view.find(sweepEpisodeKey(fp, i));
        if (it != view.end())
            out.push_back({conn, it->second});
    }
    JsonRecord done = coordwire::control("fetched");
    done.strings.emplace_back("fp", fp);
    out.push_back({conn, std::move(done)});
}

void
CoordCore::close(int conn, const char* why, double now,
                 std::vector<Frame>& out)
{
    const auto p = peers_.find(conn);
    if (p == peers_.end())
        return;
    const Peer& peer = p->second;
    // Fold its outstanding assignments back into the pool: the missing
    // indices re-dispatch to the next requester (exactly-once is the
    // have-bitmap, so a straggler's late duplicates stay harmless).
    for (auto& [fp, st] : fps_) {
        for (auto a = st.assigned.begin(); a != st.assigned.end();) {
            if (a->connId != conn) {
                ++a;
                continue;
            }
            // A complete fp whose finishing worker never got its `done`
            // matched (e.g. it crashed right after the final episode
            // landed): drop the stale assignment without charging a
            // re-dispatch.
            if (!st.complete() && opt_.verbose)
                std::fprintf(stderr,
                             "[coord] re-pooling %s [%d, %d) from dropped "
                             "%s\n",
                             fp.c_str(), a->start, a->start + a->count,
                             peer.worker.c_str());
            a = repool(st, a, !st.complete());
        }
    }
    // A drop without `bye` may be a reset the worker is about to heal
    // by reconnecting -- possibly to fetch a campaign that just
    // completed -- so --once must not end under it at once.
    if (!peer.bye)
        rejoinUntil_ = now + kRejoinGraceSeconds;
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] conn %d (%s) closed: %s\n", conn,
                     peer.worker.empty() ? "?" : peer.worker.c_str(), why);
    peers_.erase(p);
    answerParked(now, out);
}

bool
CoordCore::tick(double now, std::vector<Frame>& out)
{
    expireAssignments(now);
    answerParked(now, out);
    return opt_.once && peers_.empty() && !fps_.empty() &&
           std::all_of(fps_.begin(), fps_.end(),
                       [](const auto& f) { return f.second.complete(); }) &&
           now >= rejoinUntil_;
}

void
CoordCore::expireAssignments(double now)
{
    for (auto& [fp, st] : fps_) {
        if (st.complete())
            continue; // nothing left to re-dispatch; let `done` match
        for (auto a = st.assigned.begin(); a != st.assigned.end();) {
            if (now - a->since <= opt_.rangeTimeoutSeconds) {
                ++a;
                continue;
            }
            std::fprintf(stderr,
                         "[coord] range %s [%d, %d) timed out on %s "
                         "(%.1fs); re-dispatching\n",
                         fp.c_str(), a->start, a->start + a->count,
                         a->worker.empty() ? "?" : a->worker.c_str(),
                         now - a->since);
            a = repool(st, a, true);
        }
    }
}

std::vector<CoordCore::Assignment>::iterator
CoordCore::repool(FpState& st,
                          std::vector<Assignment>::iterator a, bool charge)
{
    if (charge) {
        ++rangesRedispatched_;
        if (!a->worker.empty())
            ++workers_[a->worker].rangesRedispatched;
    }
    return st.assigned.erase(a);
}

void
CoordCore::putTelemetry()
{
    // One `worker|<id>` record per fleet member, refreshed every flush.
    // Pure observability: readers surface them (sweep-stats shards
    // table) but never fold them into cells, so the bit-exact diff
    // gates are untouched.
    for (const auto& [id, ws] : workers_) {
        JsonRecord r;
        r.name = sweepWorkerKey(id);
        r.numbers = {
            {"rangesAssigned", static_cast<double>(ws.rangesAssigned)},
            {"rangesCompleted", static_cast<double>(ws.rangesCompleted)},
            {"rangesRedispatched", static_cast<double>(ws.rangesRedispatched)},
            {"episodes", static_cast<double>(ws.episodes)},
            {"elapsed", ws.lastSeen - ws.firstSeen}};
        if (!ws.rangeWallMs.empty()) {
            r.numbers.emplace_back("rangeP50Ms",
                                   percentile(ws.rangeWallMs, 50.0));
            r.numbers.emplace_back("rangeP95Ms",
                                   percentile(ws.rangeWallMs, 95.0));
        }
        store_.put(std::move(r));
    }
}

} // namespace create
