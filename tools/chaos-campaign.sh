#!/bin/sh
# Chaos campaign gate: prove campaigns survive torn writes, worker
# death, connection resets and a coordinator crash with a final store
# bit-exact vs a serial run.
#
# Usage: tools/chaos-campaign.sh [build-dir]   (default: build)
#
# Five legs, each ending in a bit-exact sweep-diff against the same
# serial golden store. Legs 1-2 run a single-process campaign and
# relaunch it with --resume:
#
#   1. torn write CREATE_CHAOS tear= truncates the store to a random
#                 fraction after flushes; the next flush heals the file.
#                 A chaos-off --resume pass afterwards salvages the
#                 parseable prefix and re-runs whatever the final tear
#                 destroyed (json rewrites heal every earlier tear, so
#                 there it must re-execute nothing; a binlog tear cuts
#                 frames already appended, so it re-runs those).
#   2. abort      CREATE_CHAOS abort= makes the campaign _exit(137)
#                 before random flushes (the OOM-kill shape). The script
#                 relaunches with --resume until a run survives to
#                 completion -- every relaunch executes only the
#                 episodes missing from the store.
#
# Legs 3-5 run the same campaign through the socket coordinator
# (create-coordinator + fig13 --connect workers, no shared filesystem),
# the one way a campaign spans processes:
#
#   3. kill -9    one of two socket workers dies mid-campaign; its
#                 outstanding range is re-pooled (the dropped connection,
#                 or --range-timeout) and the coordinator re-dispatches
#                 the missing episode indices to the survivor.
#   4. connreset  CREATE_CHAOS connreset= severs coordinator-wire sends
#                 mid-frame on both sides: the workers' (episodes, requests)
#                 and the coordinator's (the ranges and `fin`s it pushes to
#                 parked requests, fetch replies). A severed coordinator
#                 send drops that connection and re-pools its ranges; every
#                 reset must heal by reconnect + re-send (duplicates merge
#                 idempotently).
#   5. coord kill the coordinator itself is kill -9'd mid-campaign and
#                 restarted on the same port + store: it salvages the
#                 store, re-learns progress from the have-bitmap, and
#                 the workers' connect-retry budget rides through.
#
# Episodes are deterministic (seeded per index, exact integer kernels),
# so however chaotically the work is re-run, re-dispatched, or
# re-merged, the final store must be bit-identical to the serial one.
# Tunables:
#   CHAOS_REPS (default 2)       reps per cell (campaign size)
#   CHAOS_RANGE_TIMEOUT (default 2) coordinator range timeout, seconds
#   CHAOS_KILL_AFTER (default 1) seconds before the kill -9
#   STORE_FORMAT (default json)  campaign store backend (json|binlog).
#                                The serial golden stays json either way:
#                                diffing binlog campaigns against it also
#                                gates the cross-format readers.
set -e
cd "$(dirname "$0")/.."
build=${1:-build}
fig13=$build/bench/bench_fig13_techniques
diff=$build/tools/sweep-diff
stats=$build/tools/sweep-stats
coord=$build/tools/create-coordinator
reps=${CHAOS_REPS:-2}
range_timeout=${CHAOS_RANGE_TIMEOUT:-2}
kill_after=${CHAOS_KILL_AFTER:-1}
fmt=${STORE_FORMAT:-json}
echo "== store format: $fmt (serial golden: json)"

work=$(mktemp -d /tmp/chaos-campaign.XXXXXX)
trap 'rm -rf "$work"' EXIT INT TERM

echo "== serial golden ($fig13 --reps $reps)"
"$fig13" --reps "$reps" --out "$work/serial.json" > /dev/null 2>&1

echo "== leg 1: torn-write chaos (CREATE_CHAOS tear=0.2) + heal"
CREATE_CHAOS="tear=0.2" CREATE_CHAOS_SEED=20260808 \
    "$fig13" --reps "$reps" --out "$work/tear.store" --store-format "$fmt" \
    --flush-every 1 > /dev/null 2> "$work/tear.log"
tears=$(grep -c "\[chaos\] tore" "$work/tear.log" || true)
echo "   injected $tears torn writes"
if [ "${tears:-0}" -eq 0 ]; then
    echo "FAIL: tear chaos never fired; the leg is vacuous"
    exit 1
fi
# Heal pass: chaos off. Re-executes whatever the tears destroyed from the
# salvaged prefix (nothing, when the store self-healed).
"$fig13" --reps "$reps" --out "$work/tear.store" --resume \
    > "$work/heal.log" 2>&1
grep "\[sweep\] cells=" "$work/heal.log" || true
"$diff" "$work/serial.json" "$work/tear.store"

echo "== leg 2: abort-before-flush chaos (CREATE_CHAOS abort=0.03)"
tries=0
until CREATE_CHAOS="abort=0.03" CREATE_CHAOS_SEED=$((1000 + tries)) \
    "$fig13" --reps "$reps" --out "$work/abort.store" --store-format "$fmt" \
    --resume --flush-every 1 > /dev/null 2> "$work/abort.log"; do
    tries=$((tries + 1))
    if [ "$tries" -gt 25 ]; then
        echo "FAIL: no run survived after $tries relaunches"
        exit 1
    fi
done
echo "   survived after $tries abort-and-resume relaunches"
"$diff" "$work/serial.json" "$work/abort.store"

# Start a create-coordinator on an ephemeral port over $1 (store path)
# with extra flags $2...; sets $coord_pid and $port (parsed from the
# "listening on port N" line).
start_coordinator() {
    cstore=$1
    shift
    : > "$work/coord.out"
    "$coord" --store "$cstore" --store-format "$fmt" \
        --range-timeout "$range_timeout" --once "$@" > "$work/coord.out" 2>> "$work/coord.log" &
    coord_pid=$!
    port=""
    tries=0
    while [ -z "$port" ]; do
        port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' \
            "$work/coord.out")
        [ -n "$port" ] && break
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "FAIL: coordinator never reported its port"
            exit 1
        fi
        sleep 0.1
    done
}

echo "== leg 3: kill -9 one of two socket workers (coordinator campaign)"
start_coordinator "$work/sock.store"
"$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/sock-victim.log" &
victim=$!
"$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/sock-survivor.log" &
survivor=$!
sleep "$kill_after"
if kill -9 "$victim" 2> /dev/null; then
    echo "   killed socket worker pid $victim after ${kill_after}s"
else
    echo "   worker $victim already finished (campaign too fast to kill)"
fi
wait "$victim" 2> /dev/null || true
if ! wait "$survivor"; then
    echo "FAIL: surviving socket worker exited nonzero"
    sed -n '$p' "$work/sock-survivor.log"
    exit 1
fi
if ! wait "$coord_pid"; then
    echo "FAIL: coordinator exited nonzero"
    sed -n '$p' "$work/coord.log"
    exit 1
fi
grep "episodes ingested" "$work/coord.log" | tail -1 || true
"$diff" "$work/serial.json" "$work/sock.store"
"$stats" "$work/sock.store" | sed -n '/Per-worker/,/^$/p'

echo "== leg 4: connreset storm on the coordinator and its workers (CREATE_CHAOS connreset=0.05)"
: > "$work/coord.log" # only this leg's coordinator resets are counted
export CREATE_CHAOS="connreset=0.05" CREATE_CHAOS_SEED=20260810
start_coordinator "$work/reset.store"
unset CREATE_CHAOS CREATE_CHAOS_SEED
CREATE_CHAOS="connreset=0.05" CREATE_CHAOS_SEED=20260808 \
    "$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/reset-w1.log" &
w1=$!
CREATE_CHAOS="connreset=0.05" CREATE_CHAOS_SEED=20260809 \
    "$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/reset-w2.log" &
w2=$!
if ! wait "$w1" || ! wait "$w2"; then
    echo "FAIL: a socket worker did not survive the connreset storm"
    sed -n '$p' "$work/reset-w1.log" "$work/reset-w2.log"
    exit 1
fi
if ! wait "$coord_pid"; then
    echo "FAIL: coordinator exited nonzero under connreset"
    sed -n '$p' "$work/coord.log"
    exit 1
fi
resets=$(cat "$work/reset-w1.log" "$work/reset-w2.log" |
    grep -c "\[chaos\] connreset" || true)
coord_resets=$(grep -c "\[chaos\] connreset" "$work/coord.log" || true)
echo "   injected $resets worker-side and $coord_resets coordinator-side connection resets"
if [ "${resets:-0}" -eq 0 ] || [ "${coord_resets:-0}" -eq 0 ]; then
    echo "FAIL: connreset chaos never fired on one side; the leg is vacuous"
    exit 1
fi
"$diff" "$work/serial.json" "$work/reset.store"

echo "== leg 5: kill -9 the coordinator mid-campaign, restart on same store"
start_coordinator "$work/ckill.store"
"$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/ckill-w1.log" &
w1=$!
"$fig13" --reps "$reps" --connect "127.0.0.1:$port" \
    > /dev/null 2> "$work/ckill-w2.log" &
w2=$!
sleep "$kill_after"
if kill -9 "$coord_pid" 2> /dev/null; then
    echo "   killed coordinator pid $coord_pid after ${kill_after}s"
    wait "$coord_pid" 2> /dev/null || true
    # Restart on the SAME port (SO_REUSEADDR) and the same store: it
    # salvages the store's tail and resumes from the surviving episodes;
    # the workers' connect-retry backoff (~30 s) rides through the gap.
    start_coordinator "$work/ckill.store" --port "$port"
else
    echo "   coordinator already finished (campaign too fast to kill)"
    coord_pid=""
fi
if ! wait "$w1" || ! wait "$w2"; then
    echo "FAIL: a socket worker did not survive the coordinator restart"
    sed -n '$p' "$work/ckill-w1.log" "$work/ckill-w2.log"
    exit 1
fi
if [ -n "$coord_pid" ] && ! wait "$coord_pid"; then
    echo "FAIL: restarted coordinator exited nonzero"
    sed -n '$p' "$work/coord.log"
    exit 1
fi
grep "episodes ingested" "$work/coord.log" | tail -1 || true
"$diff" "$work/serial.json" "$work/ckill.store"

echo "== chaos-campaign: all legs bit-exact vs serial"
