#!/usr/bin/env bash
# Tier-1 smoke for the socket transport (DESIGN.md §17), five rounds:
#   1. UDS loopback — agentlocd on a unix socket, verified loadgen;
#   2. TCP loopback — the same pair over tcp:127.0.0.1;
#   3. multi-worker — agentlocd --workers 4, loadgen --cluster routing via
#      the kPartitionMap advertisement;
#   4. multi-worker TCP — agentlocd --workers 2 on tcp:127.0.0.1, so worker
#      1 listens on port+1 (SO_REUSEPORT), loadgen --cluster routing;
#   5. bad flags — a malformed or non-positive numeric flag makes either
#      binary exit 2 at once, never abort or hang.
# Fails on any mismatch or unexpected exit code.
#
# Exit codes:
#   0   all rounds verified
#   77  sandbox cannot create or watch sockets (skip; automake/ctest
#       convention)
#   1   anything else
#
# Usage: scripts/transport_smoke.sh [BUILD_DIR]   (default: build)

set -u

BUILD_DIR="${1:-build}"
AGENTLOCD="${BUILD_DIR}/examples/agentlocd"
LOADGEN="${BUILD_DIR}/examples/agentloc_loadgen"
SOCK="/tmp/agentloc-smoke-$$.sock"
TCP_PORT=$((20000 + $$ % 20000))
# Round 4's base port; its worker 1 takes +1, clear of round 2's port.
TCP_CLUSTER_PORT=$((TCP_PORT + 1))

for bin in "${AGENTLOCD}" "${LOADGEN}"; do
  if [ ! -x "${bin}" ]; then
    echo "transport_smoke: missing binary ${bin} (build the examples first)" >&2
    exit 1
  fi
done

# Probe first: containers without AF_UNIX support skip, not fail.
"${AGENTLOCD}" --probe
probe_rc=$?
if [ "${probe_rc}" -eq 77 ]; then
  echo "transport_smoke: SKIP (sandbox cannot create sockets)"
  exit 77
elif [ "${probe_rc}" -ne 0 ]; then
  echo "transport_smoke: probe failed with ${probe_rc}" >&2
  exit 1
fi

cleanup() {
  if [ -n "${server_pid:-}" ]; then
    kill "${server_pid}" 2>/dev/null
    wait "${server_pid}" 2>/dev/null
  fi
  rm -f "${SOCK}" "${SOCK}".w*
}
trap cleanup EXIT

stop_server() {
  if [ -n "${server_pid:-}" ]; then
    kill "${server_pid}" 2>/dev/null
    wait "${server_pid}" 2>/dev/null
    server_pid=""
  fi
  rm -f "${SOCK}" "${SOCK}".w*
}

# wait_for_uds SOCKET — block until the path exists or the server died.
wait_for_uds() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "transport_smoke: agentlocd exited before binding" >&2
      return 1
    fi
    sleep 0.02
  done
  echo "transport_smoke: $1 never appeared" >&2
  return 1
}

# run_loadgen ARGS... — fail the smoke on any nonzero loadgen exit.
run_loadgen() {
  "${LOADGEN}" "$@" --agents 500 --ops 5000 --verify true
  loadgen_rc=$?
  if [ "${loadgen_rc}" -ne 0 ]; then
    echo "transport_smoke: loadgen FAILED (rc=${loadgen_rc})" >&2
    exit 1
  fi
}

# --- round 1: UDS loopback, single worker ------------------------------------
"${AGENTLOCD}" --listen "unix:${SOCK}" --partitions 8 --quiet &
server_pid=$!
wait_for_uds "${SOCK}" || exit 1
run_loadgen --connect "unix:${SOCK}"
stop_server
echo "transport_smoke: UDS round OK"

# wait_for_tcp — TCP has no socket file to poll; the listeners bind before
# serving, so give the server a moment and check it is still alive.
wait_for_tcp() {
  sleep 0.2
  if ! kill -0 "${server_pid}" 2>/dev/null; then
    echo "transport_smoke: agentlocd (tcp) exited before serving" >&2
    return 1
  fi
}

# --- round 2: TCP loopback ---------------------------------------------------
"${AGENTLOCD}" --listen "tcp:127.0.0.1:${TCP_PORT}" --partitions 8 --quiet &
server_pid=$!
wait_for_tcp || exit 1
run_loadgen --connect "tcp:127.0.0.1:${TCP_PORT}"
stop_server
echo "transport_smoke: TCP round OK"

# --- round 3: sharded workers + routing client -------------------------------
"${AGENTLOCD}" --listen "unix:${SOCK}" --partitions 8 --workers 4 --quiet &
server_pid=$!
wait_for_uds "${SOCK}.w3" || exit 1
run_loadgen --connect "unix:${SOCK}" --cluster true
stop_server
echo "transport_smoke: multi-worker round OK"

# --- round 4: sharded workers over TCP (port+k derivation) -------------------
"${AGENTLOCD}" --listen "tcp:127.0.0.1:${TCP_CLUSTER_PORT}" --partitions 8 \
  --workers 2 --quiet &
server_pid=$!
wait_for_tcp || exit 1
run_loadgen --connect "tcp:127.0.0.1:${TCP_CLUSTER_PORT}" --cluster true
stop_server
echo "transport_smoke: multi-worker TCP round OK"

# --- round 5: bad numeric flags exit 2 (usage error) -------------------------
# expect_flag_error CMD ARGS... — CMD must exit 2 within the timeout; 124
# would be a hang, 134 an abort.
expect_flag_error() {
  timeout 5 "$@" > /dev/null
  flag_rc=$?
  if [ "${flag_rc}" -ne 2 ]; then
    echo "transport_smoke: '$*' exited ${flag_rc}, expected 2" >&2
    exit 1
  fi
}
expect_flag_error "${AGENTLOCD}" --listen "unix:${SOCK}" --partitions abc
expect_flag_error "${LOADGEN}" --connect "unix:${SOCK}" --window 0
echo "transport_smoke: bad-flag round OK"

echo "transport_smoke: OK"
exit 0
