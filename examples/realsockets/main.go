// Realsockets: the Hermes control loop running over real TCP sockets and
// goroutine workers — the "expose it through an SDK" form factor of §4.2.
//
// A listener on loopback accepts connections and dispatches each to a
// worker chosen by the live Hermes bitmap (core.NativeSelect over the
// shared Worker Status Table), standing in for the kernel's reuseport
// program, which portable Go cannot attach. Workers parse HTTP/1.1 with the
// repo's own codec, publish their status through the lock-free WST exactly
// as in Fig. 9, and run Algorithm 1 at the end of every loop.
//
// One worker is deliberately poisoned with a slow handler; watch Hermes
// steer new connections away from it while total throughput holds.
//
//	go run ./examples/realsockets
package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/core"
	"hermes/internal/httpx"
)

const (
	workers    = 4
	clients    = 16
	reqPerCli  = 150
	slowWorker = 3 // poisoned worker: 20ms per request
)

type worker struct {
	id     int
	hook   *core.WorkerHook
	queue  chan net.Conn
	served atomic.Uint64
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, 16<<10)
	for conn := range w.queue {
		w.hook.LoopEnter(time.Now().UnixNano())
		w.hook.ConnOpened()
		w.serveConn(conn, buf)
		w.hook.ConnClosed()
		w.hook.ScheduleAndSync(time.Now().UnixNano())
	}
}

func (w *worker) serveConn(conn net.Conn, buf []byte) {
	defer conn.Close()
	pending := 0
	for {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf[pending:])
		if err != nil {
			return
		}
		pending += n
		for {
			req, consumed, perr := httpx.ParseRequest(buf[:pending])
			if perr == httpx.ErrIncomplete {
				break
			}
			if perr != nil {
				return
			}
			copy(buf, buf[consumed:pending])
			pending -= consumed

			w.hook.EventsFetched(1)
			if w.id == slowWorker {
				time.Sleep(20 * time.Millisecond) // poisoned handler
			}
			resp := httpx.Response{
				Status: 200,
				Headers: []httpx.Header{
					{Name: "X-Worker", Value: fmt.Sprint(w.id)},
				},
				Body: []byte("ok from worker " + fmt.Sprint(w.id)),
			}
			if _, err := conn.Write(resp.Append(nil)); err != nil {
				return
			}
			w.served.Add(1)
			w.hook.EventHandled()
			if !req.WantsKeepAlive() {
				return
			}
		}
		w.hook.LoopEnter(time.Now().UnixNano())
		w.hook.ScheduleAndSync(time.Now().UnixNano())
	}
}

func main() {
	ctl, err := core.New(workers, core.DefaultConfig()) // ≤64 workers: one group
	if err != nil {
		panic(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	fmt.Println("hermes-over-goroutines listening on", addr)

	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &worker{id: i, hook: ctl.NewWorkerHook(i), queue: make(chan net.Conn, 256)}
		ws[i].hook.LoopEnter(time.Now().UnixNano())
		wg.Add(1)
		go ws[i].run(&wg)
	}
	// Seed the kernel-side map once so the first accepts have a bitmap.
	ws[0].hook.ScheduleAndSync(time.Now().UnixNano())

	// Acceptor: the kernel-dispatch stand-in. Reads the selection map the
	// schedulers publish and picks the worker by scaled hash, with
	// round-robin fallback when too few workers pass (Algorithm 2's
	// fallback arm).
	var dispatched [workers]atomic.Uint64
	var hashSeq atomic.Uint32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			bitmap, _ := ctl.SelMap(0).Lookup(0)
			h := hashSeq.Add(2654435761)
			wi, ok := core.NativeSelect(bitmap, h, ctl.Config().MinWorkers)
			if !ok {
				wi = int(h % workers)
			}
			dispatched[wi].Add(1)
			ws[wi].queue <- conn
		}
	}()

	// Clients: keep-alive connections, sequential requests.
	var clientWG sync.WaitGroup
	var failures atomic.Uint64
	start := time.Now()
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			for r := 0; r < reqPerCli; r++ {
				if err := doRequest(addr, c, r); err != nil {
					failures.Add(1)
				}
			}
		}(c)
	}
	clientWG.Wait()
	elapsed := time.Since(start)

	for i := range ws {
		close(ws[i].queue)
	}
	wg.Wait()

	total := uint64(0)
	fmt.Printf("\n%-8s %-12s %-10s\n", "worker", "dispatched", "served")
	for i, w := range ws {
		note := ""
		if i == slowWorker {
			note = "  <- poisoned (20ms/request)"
		}
		fmt.Printf("w%-7d %-12d %-10d%s\n", i, dispatched[i].Load(), w.served.Load(), note)
		total += w.served.Load()
	}
	st := ctl.Stats()
	fmt.Printf("\nserved %d requests in %v (%d failures), %d scheduler passes, avg %.1f workers selected\n",
		total, elapsed.Round(time.Millisecond), failures.Load(), st.ScheduleCalls, st.AvgPassed)
	fmt.Println("the poisoned worker's pending-event count keeps it out of the bitmap,")
	fmt.Println("so the acceptor starves it of new connections — same loop as the paper's kernel path.")
}

func doRequest(addr string, c, r int) error {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	req := httpx.Request{
		Method: "GET",
		Target: fmt.Sprintf("/client%d/req%d", c, r),
		Headers: []httpx.Header{
			{Name: "Host", Value: "demo"},
			{Name: "Connection", Value: "close"},
		},
	}
	if _, err := conn.Write(req.Append(nil)); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	data, err := io.ReadAll(conn)
	if err != nil {
		return err
	}
	if _, _, err := httpx.ParseResponse(data); err != nil {
		return err
	}
	return nil
}
