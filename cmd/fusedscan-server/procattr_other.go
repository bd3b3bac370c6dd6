//go:build !linux

package main

import "syscall"

// childProcAttr is a no-op where the kernel offers no parent-death signal.
func childProcAttr() *syscall.SysProcAttr { return nil }
