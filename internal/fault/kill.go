package fault

import (
	"os"
	"sync/atomic"
	"syscall"
)

// KillSwitch is the process-level member of the fault family: where
// Injector perturbs individual match workers inside a cycle, the kill
// switch takes out the whole process. Armed with a countdown N, the Nth
// Tick delivers an uncatchable SIGKILL to the process itself — no drain,
// no deferred handlers, no final snapshot — which is exactly the crash
// the durability layer (image + WAL, DESIGN §10) must absorb. CI's
// restore-storm-smoke leg arms it via psmed -kill-after to murder a backend
// at a deterministic point in the request stream.
type KillSwitch struct {
	remaining atomic.Int64
	// kill is swapped out by tests; the real thing is not mockable twice.
	kill func()
}

// NewKillSwitch arms a switch that fires on the nth Tick (n <= 0 returns
// nil, which is inert).
func NewKillSwitch(n int64) *KillSwitch {
	if n <= 0 {
		return nil
	}
	k := &KillSwitch{}
	k.remaining.Store(n)
	k.kill = func() {
		// SIGKILL over os.Exit: no atexit paths run, file buffers are NOT
		// flushed — the honest crash. Kill can only fail if the process is
		// already dying; fall through to a hard exit so the switch never
		// silently disarms.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		os.Exit(137)
	}
	return k
}

// Tick counts one event (nil-safe). The tick that reaches zero fires the
// switch and does not return; later ticks (racing workers) are inert.
func (k *KillSwitch) Tick() {
	if k == nil {
		return
	}
	if k.remaining.Add(-1) == 0 {
		k.kill()
	}
}
