//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// dieWithParent is Linux-only; elsewhere stop() is all there is.
func dieWithParent(*exec.Cmd) {}

// sleepUntil blocks until at, to the Go runtime's timer precision.
func sleepUntil(at time.Time) {
	if d := time.Until(at); d > 0 {
		time.Sleep(d)
	}
}
