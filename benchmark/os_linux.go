package main

import (
	"os/exec"
	"syscall"
	"time"
)

// dieWithParent has the kernel kill the child should this process end
// without stopping it (a crash, a timeout's SIGKILL).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleepUntil blocks until at. The open-loop generator needs better than the
// millisecond the Go runtime's timers give an otherwise idle process (its
// poller rounds a sub-millisecond wait up to a whole one), and spinning
// would take a core from the daemon under test, so it sleeps in the kernel.
func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
