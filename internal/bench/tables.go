package bench

import (
	"fmt"
	"math/rand"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(Seq("table1",
		"request size and processing-time distributions per region",
		func(o Options) string { return RenderTable1(Table1(o)) }))
	Register(table2Experiment{})
	Register(Seq("table4",
		"distribution of the 4 cases across regions", Table4))
}

// Table1Row is one region's request-size and processing-time percentiles.
type Table1Row struct {
	Region  string
	SizeP50 float64
	SizeP90 float64
	SizeP99 float64
	ProcP50 float64 // ms
	ProcP90 float64
	ProcP99 float64
}

// Table1 reproduces Table 1: request size and processing-time distributions
// across the four regional mixes. Sampling is per request from the mixes
// (these are traffic *inputs*; the paper measures them at the LB).
func Table1(opts Options) []Table1Row {
	ports := tenantPorts(opts.Tenants)
	rng := rand.New(rand.NewSource(opts.Seed))
	var rows []Table1Row
	for _, region := range workload.Regions() {
		var size, proc stats.Sample
		for i := 0; i < 120_000; i++ {
			s, p := region.SampleRequest(rng, ports)
			size.Add(s)
			proc.Add(p / 1e6) // ns → ms
		}
		rows = append(rows, Table1Row{
			Region:  region.Name,
			SizeP50: size.Percentile(50),
			SizeP90: size.Percentile(90),
			SizeP99: size.Percentile(99),
			ProcP50: proc.Percentile(50),
			ProcP90: proc.Percentile(90),
			ProcP99: proc.Percentile(99),
		})
	}
	return rows
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	tb := stats.NewTable("Table 1 — request size and processing time distributions",
		"Region", "size P50 (B)", "size P90", "size P99", "proc P50 (ms)", "proc P90", "proc P99")
	for _, r := range rows {
		tb.AddRow(r.Region,
			fmt.Sprintf("%.0f", r.SizeP50), fmt.Sprintf("%.0f", r.SizeP90), fmt.Sprintf("%.0f", r.SizeP99),
			stats.FormatMS(r.ProcP50), stats.FormatMS(r.ProcP90), stats.FormatMS(r.ProcP99))
	}
	return tb.Render()
}

// Table2Device is one device's CPU balance figures.
type Table2Device struct {
	Name                      string
	MaxUtil, MinUtil, AvgUtil float64
}

// Table2Result carries the extreme devices plus the region average.
type Table2Result struct {
	Worst, Best Table2Device // largest and smallest max-min spread
	RegionAvg   Table2Device
	Devices     int
}

// table2Experiment reproduces Table 2: CPU utilization imbalance within a
// device and across devices of a region running epoll-exclusive. Each
// simulated device carries a different tenant mix and load level
// (heterogeneous multi-tenancy is what spreads the averages); the
// per-device max/min core spread comes from exclusive's concentration.
type table2Experiment struct{}

func (table2Experiment) Name() string { return "table2" }
func (table2Experiment) Desc() string {
	return "CPU imbalance within/across devices under epoll-exclusive"
}

// Cells enumerates one cell per simulated device: private engine, private
// per-device RNG for the load level.
func (table2Experiment) Cells(opts Options) []Cell {
	const devices = 24
	ports := tenantPorts(opts.Tenants)
	cells := make([]Cell, devices)
	for d := 0; d < devices; d++ {
		d := d
		name := fmt.Sprintf("device%02d", d)
		cells[d] = Cell{Name: name, Run: func() any {
			rng := rand.New(rand.NewSource(opts.Seed + int64(d)*977))
			region := workload.Regions()[d%4]
			// Device load level varies widely across a region.
			totalRPS := (4_000 + rng.Float64()*50_000) * opts.RateScale
			specs := region.Specs(ports, totalRPS)
			run, err := Run(RunConfig{
				Mode:      l7lb.ModeExclusive,
				Workers:   opts.Workers,
				Ports:     ports,
				Seed:      opts.Seed + int64(d),
				Window:    opts.Window,
				Drain:     opts.Drain / 2,
				Specs:     specs,
				Telemetry: opts.Metrics.Sink(name),
				Tracer:    opts.Spans.Tracer(name),
				Mutate:    func(c *l7lb.Config) { c.RegisteredPorts = opts.RegisteredPorts },
			})
			if err != nil {
				panic(fmt.Sprintf("bench: table2 device %d: %v", d, err))
			}
			dev := Table2Device{Name: name}
			dev.MinUtil = 1
			var sum float64
			for _, u := range run.WorkerUtil {
				if u > dev.MaxUtil {
					dev.MaxUtil = u
				}
				if u < dev.MinUtil {
					dev.MinUtil = u
				}
				sum += u
			}
			dev.AvgUtil = sum / float64(len(run.WorkerUtil))
			return dev
		}}
	}
	return cells
}

func (table2Experiment) Render(opts Options, results []any) string {
	return RenderTable2(table2Assemble(results))
}

func table2Assemble(results []any) Table2Result {
	devs := make([]Table2Device, len(results))
	for i, r := range results {
		devs[i] = r.(Table2Device)
	}
	devices := len(devs)

	res := Table2Result{Devices: devices}
	res.Worst, res.Best = devs[0], devs[0]
	var maxSum, minSum, avgSum float64
	for _, d := range devs {
		if d.MaxUtil-d.MinUtil > res.Worst.MaxUtil-res.Worst.MinUtil {
			res.Worst = d
		}
		if d.MaxUtil-d.MinUtil < res.Best.MaxUtil-res.Best.MinUtil {
			res.Best = d
		}
		maxSum += d.MaxUtil
		minSum += d.MinUtil
		avgSum += d.AvgUtil
	}
	res.RegionAvg = Table2Device{
		Name:    "region-avg",
		MaxUtil: maxSum / float64(devices),
		MinUtil: minSum / float64(devices),
		AvgUtil: avgSum / float64(devices),
	}
	return res
}

// Table2 runs all device cells and returns the assembled result.
func Table2(opts Options) Table2Result {
	e := table2Experiment{}
	return table2Assemble(runCells(opts, e.Cells(opts)))
}

// RenderTable2 formats Table 2.
func RenderTable2(r Table2Result) string {
	tb := stats.NewTable(
		fmt.Sprintf("Table 2 — CPU imbalance under epoll-exclusive (%d devices)", r.Devices),
		"device", "max core util", "min core util", "max-min", "avg util")
	for _, d := range []Table2Device{r.Worst, r.Best, r.RegionAvg} {
		tb.AddRow(d.Name,
			fmt.Sprintf("%.1f%%", d.MaxUtil*100),
			fmt.Sprintf("%.1f%%", d.MinUtil*100),
			fmt.Sprintf("%.1f%%", (d.MaxUtil-d.MinUtil)*100),
			fmt.Sprintf("%.1f%%", d.AvgUtil*100))
	}
	return tb.Render()
}

// Table4 reproduces Table 4: the distribution of the four cases across
// regions, plus the average row. The shares are the regional mix definition
// (a measured input in the paper).
func Table4(Options) string {
	tb := stats.NewTable("Table 4 — distribution of the 4 cases across regions",
		"", "Region1", "Region2", "Region3", "Region4", "Avg")
	regions := workload.Regions()
	for ci := 0; ci < 4; ci++ {
		row := []any{fmt.Sprintf("Case%d", ci+1)}
		sum := 0.0
		for _, r := range regions {
			share := r.CaseShare[ci] * (1 - r.WebSocketShare)
			row = append(row, fmt.Sprintf("%.2f%%", share*100))
			sum += share
		}
		row = append(row, fmt.Sprintf("%.4f%%", sum/4*100))
		tb.AddRow(row...)
	}
	return tb.Render()
}
