package main

import "syscall"

// childProcAttr has the kernel SIGKILL a spawned child server when the
// harness that spawned it dies, so a killed harness (for example under
// `timeout make check`) never leaves a child server running.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
