// Package fabric distributes a sweep's spec list across worker
// processes: a Coordinator splits the list into contiguous leased
// ranges, assigns them over HTTP to Workers (cmd/sweepd daemons), and
// merges the workers' JSON-lines record streams back into spec order.
// The merged output is byte-identical to a single-process sweep of the
// same specs at any worker count — the same invariant internal/exp
// proves for in-process workers, carried across process and machine
// boundaries.
//
// Robustness is the design center, not an afterthought:
//
//   - Every lease has a deadline. A worker that crashes, hangs past the
//     deadline, or streams malformed records loses the lease, and the
//     range returns to the pending queue for reassignment.
//   - Each worker asks for its next range only after its last lease
//     returns, so a slow worker simply serves fewer ranges. Idle workers re-run straggling in-flight ranges (at most one
//     duplicate attempt per range); the first valid result wins and
//     late duplicates are deduplicated by spec key — harmless, because
//     the simulator is deterministic and both copies are bit-equal.
//   - Workers that fail repeatedly are retired; ranges that exhaust
//     their remote attempts fall back to local execution, and a
//     coordinator with no registered workers at all degrades to a plain
//     local sweep. The output bytes are identical on every path.
//   - Coordinator and workers exchange exp.SchemaVersion in the
//     /healthz handshake and stamp it on every wire record, so
//     mismatched builds are rejected instead of silently merged.
//
// The wire protocol is two HTTP endpoints on each worker:
//
//	GET /healthz
//	  -> {"ok":true,"schema_version":N}
//
//	POST /run   {"schema_version":N,"lease":"r3.1","speedup":true,
//	             "observe":false,"keys":["app=Jacobi|version=tmk|..."]}
//	  -> one exp.Record JSON line per key, in key order, each stamped
//	     with schema_version; the stream ends after exactly len(keys)
//	     records. Fewer records mean the worker died mid-range; the
//	     coordinator treats short, over-long, misordered and malformed
//	     streams identically — the lease failed.
//
// Spec ranges travel as canonical spec keys (exp.Spec.Key round-trips
// exactly through exp.ParseKey), and run failures travel as ordinary
// error records, so a distributed sweep fails with the same accounting
// as a local one.
package fabric

import "strings"

// Wire endpoint paths served by every worker.
const (
	HealthPath = "/healthz"
	RunPath    = "/run"
)

// Hello is the /healthz handshake body. A coordinator only registers
// workers whose SchemaVersion matches its own build.
type Hello struct {
	OK            bool `json:"ok"`
	SchemaVersion int  `json:"schema_version"`
}

// RunRequest leases one spec range to a worker. Keys are canonical
// spec keys in range order; the worker must answer with exactly one
// stamped record per key, in the same order.
type RunRequest struct {
	SchemaVersion int    `json:"schema_version"`
	Lease         string `json:"lease"`
	// Speedup and Observe mirror the coordinator's engine options so
	// the worker's records carry the same fields a local sweep would
	// (seq-baseline join, bd_* time attribution).
	Speedup bool     `json:"speedup,omitempty"`
	Observe bool     `json:"observe,omitempty"`
	Keys    []string `json:"keys"`
}

// NormalizeAddr turns a bare host:port into a base URL (http scheme)
// and strips any trailing slash; addresses that already carry a scheme
// pass through.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr != "" && !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}
