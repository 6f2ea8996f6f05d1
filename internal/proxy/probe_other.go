//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package proxy

import "net"

// newProbe has no non-blocking peek to build on here: every pooled
// connection counts as live, and one the backend closed while idle is left
// to the replay rule in roundTrip.
func newProbe(net.Conn) func() bool { return assumeLive }

func assumeLive() bool { return true }
