//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package proxy

import (
	"net"
	"syscall"
	"time"
)

// newProbe returns c's liveness check: a non-blocking one-byte peek. A peek
// that would block means the backend neither closed the connection nor sent
// anything while it sat idle, so it can carry a request. EOF, an error or
// unasked bytes mean it cannot. A read deadline in the past cannot stand in
// for this: Go reports such a read as timed out without asking the kernel.
func newProbe(c net.Conn) func() bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return assumeLive
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return assumeLive
	}
	var (
		b    [1]byte
		live bool
	)
	peek := func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		live = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
		return true // never wait for readiness
	}
	return func() bool {
		// The last exchange's deadline may have passed while the
		// connection sat idle; a passed deadline fails the peek unasked.
		if c.SetReadDeadline(time.Time{}) != nil || rc.Read(peek) != nil {
			return false
		}
		return live
	}
}

func assumeLive() bool { return true }
