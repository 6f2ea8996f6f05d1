package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Policy is the JSON shape of the control interface the paper's scheduler
// exposes (Appendix C: "our scheduler exposes an HTTP interface that allows
// dynamic policy updates, supports fallbacks to reuseport, and facilitates
// rapid iteration of future scheduling algorithms").
type Policy struct {
	ThetaFrac       float64 `json:"theta_frac"`
	HangThresholdMS float64 `json:"hang_threshold_ms"`
	MinWorkers      int     `json:"min_workers"`
	EpollTimeoutMS  float64 `json:"epoll_timeout_ms"`
	MaxEvents       int     `json:"max_events"`
	FilterOrder     string  `json:"filter_order"`
	ForceFallback   bool    `json:"force_fallback"`
}

func orderName(o FilterOrder) string {
	switch o {
	case OrderTimeEventConn:
		return "time-event-conn"
	case OrderTimeOnly:
		return "time-only"
	default:
		return "time-conn-event"
	}
}

func parseOrder(s string) (FilterOrder, error) {
	switch s {
	case "", "time-conn-event":
		return OrderTimeConnEvent, nil
	case "time-event-conn":
		return OrderTimeEventConn, nil
	case "time-only":
		return OrderTimeOnly, nil
	default:
		return 0, fmt.Errorf("core: unknown filter order %q", s)
	}
}

// PolicyOf snapshots the controller's live policy.
func PolicyOf(c *Controller) Policy {
	cfg := c.Config()
	return Policy{
		ThetaFrac:       cfg.ThetaFrac,
		HangThresholdMS: float64(cfg.HangThreshold) / 1e6,
		MinWorkers:      cfg.MinWorkers,
		EpollTimeoutMS:  float64(cfg.EpollTimeout) / 1e6,
		MaxEvents:       cfg.MaxEvents,
		FilterOrder:     orderName(c.FilterOrder()),
		ForceFallback:   c.ForceFallback(),
	}
}

// ApplyPolicy installs p onto the controller (atomic swap; live schedulers
// pick it up on their next pass).
func ApplyPolicy(c *Controller, p Policy) error {
	order, err := parseOrder(p.FilterOrder)
	if err != nil {
		return err
	}
	cfg := c.Config()
	cfg.ThetaFrac = p.ThetaFrac
	cfg.HangThreshold = time.Duration(p.HangThresholdMS * 1e6)
	cfg.MinWorkers = p.MinWorkers
	cfg.EpollTimeout = time.Duration(p.EpollTimeoutMS * 1e6)
	cfg.MaxEvents = p.MaxEvents
	if err := c.SetConfig(cfg); err != nil {
		return err
	}
	c.SetFilterOrder(order)
	c.SetForceFallback(p.ForceFallback)
	return nil
}

// PolicyHandler serves the control interface for one controller:
//
//	GET  /policy  → current policy JSON
//	PUT  /policy  ← policy JSON (validated; atomic swap)
//	GET  /status  → scheduling statistics + live worker metrics
//
// Mount it on any mux; it performs no authentication (production would sit
// behind the control-plane's).
func PolicyHandler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, PolicyOf(c))
		case http.MethodPut, http.MethodPost:
			var p Policy
			if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			if err := ApplyPolicy(c, p); err != nil {
				writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, PolicyOf(c))
		default:
			w.Header().Set("Allow", "GET, PUT")
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET or PUT"})
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
			return
		}
		type workerStatus struct {
			Worker      int   `json:"worker"`
			LoopEnterNS int64 `json:"loop_enter_ns"`
			Busy        int64 `json:"busy"`
			Conn        int64 `json:"conn"`
		}
		snap := c.Table().Snapshot(nil)
		ws := make([]workerStatus, len(snap))
		for i, m := range snap {
			ws[i] = workerStatus{Worker: i, LoopEnterNS: m.LoopEnterNS, Busy: m.Busy, Conn: m.Conn}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"stats":     c.Stats(),
			"selection": fmt.Sprintf("%064b", c.WST().LoadSelection()), // group 0's
			"workers":   ws,
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
