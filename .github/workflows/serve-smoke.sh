#!/usr/bin/env bash
# Serve smoke test: boot fairsw-served on an ephemeral port, run a short
# multi-tenant loadgen burst, assert a clean SHUTDOWN-driven exit.
set -euo pipefail

cargo build --release -p fairsw-serve

# Raise the fd ceiling before the server starts (it inherits the limit
# at spawn): the 512-connection sweep below needs 512 sockets on each
# end plus WAL/spool files and headroom.
ulimit -n 4096 || echo "ulimit raise unavailable; proceeding with default"

SCRATCH="$(mktemp -d)"
SERVER_PID=""
# Kill the background server on any failure path so a broken burst
# fails the step fast instead of hanging it on the orphaned process.
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$SCRATCH"' EXIT
PORT_FILE="$SCRATCH/addr"

./target/release/fairsw-served \
    --addr 127.0.0.1:0 \
    --shards 2 \
    --spool "$SCRATCH/spool" \
    --port-file "$PORT_FILE" &
SERVER_PID=$!

# Wait for the server to publish its ephemeral address.
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "server never published its address"; exit 1; }
ADDR="$(cat "$PORT_FILE")"
echo "server at $ADDR"

# Read-heavy burst first: 95/5 query/ingest with Zipf-skewed tenants —
# repeat queries against an often-unchanged window exercise the serve-
# side result cache; every query must still answer.
./target/release/fairsw-loadgen \
    --addr "$ADDR" --tenants 4 --points 2000 --batch 128 --window 400 \
    --mix read-heavy

# Wide-dim ingest: the unit-norm embedding-drift workload with a
# server-side JL projection riding in the CREATE config — covers the
# projection wire path end to end (project-before-WAL, STATS fields
# surfaced in the report).
./target/release/fairsw-loadgen \
    --addr "$ADDR" --tenants 2 --points 1500 --batch 128 --window 400 \
    --embeddings --dim 256 --project 32

# Same wide-dim burst through the sparse Achlioptas matrix.
./target/release/fairsw-loadgen \
    --addr "$ADDR" --tenants 2 --points 1500 --batch 128 --window 400 \
    --embeddings --dim 256 --project 32 --project-sparse

# High-concurrency sweep: 512 open connections against the reactor with
# connection churn, exercising accept/reap under load and the bounded
# per-connection buffers.
./target/release/fairsw-loadgen \
    --addr "$ADDR" --connections 512 --tenants 8 --requests 4000 \
    --window 400 --churn 0.02

# Short burst: 4 tenants, batched ingest, final queries must answer;
# --shutdown asks the server to exit cleanly afterwards.
./target/release/fairsw-loadgen \
    --addr "$ADDR" --tenants 4 --points 3000 --batch 128 --window 400 \
    --shutdown

# The server must exit cleanly (status 0) after SHUTDOWN.
wait "$SERVER_PID"
SERVER_PID=""
echo "serve smoke: clean shutdown"

# WAL durability smoke: the crash drill boots its own WAL-backed server,
# ingests, SIGKILLs it mid-stream, restarts from the spool + WAL and
# verifies the recovered tenant lost at most one batch and keeps
# answering queries.
./target/release/fairsw-loadgen \
    --crash-drill --points 2000 --batch 64 --kill-after 1000 \
    --dir "$SCRATCH/drill" --served-bin ./target/release/fairsw-served
echo "serve smoke: WAL crash drill clean"

# Same drill, recovering by failover: a hot standby streams the leader's
# WAL, the leader is SIGKILLed, the standby is PROMOTEd and takes over.
./target/release/fairsw-loadgen \
    --crash-drill --failover --points 2000 --batch 64 --kill-after 1000 \
    --dir "$SCRATCH/drill-failover" --served-bin ./target/release/fairsw-served
echo "serve smoke: failover drill clean"
