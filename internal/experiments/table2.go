package experiments

import (
	"fmt"
	"io"
	"time"

	"specml/internal/platform"
)

// Table2Row is one platform column of Table 2.
type Table2Row struct {
	Platform string
	Device   string
	Estimate platform.Estimate
}

// Table2 reproduces the embedded-platform study: the Table-1 network
// executed 21 600 times on the four Jetson profiles (Nano/TX2 x CPU/GPU),
// reporting execution time, power and energy. Published reference cells
// are printed alongside the model's estimates.
func Table2(cfg Config, w io.Writer) ([]Table2Row, error) {
	m, err := Table1(cfg, io.Discard)
	if err != nil {
		return nil, err
	}
	ops, err := platform.CountModel(m)
	if err != nil {
		return nil, err
	}
	const samples = 21600
	published := map[string][3]float64{ // time s, power W, energy J
		"Jetson Nano/cpu": {30.19, 5.03, 151.86},
		"Jetson Nano/gpu": {6.34, 4.77, 30.24},
		"Jetson TX2/cpu":  {21.64, 5.92, 128.11},
		"Jetson TX2/gpu":  {3.03, 6.68, 20.24},
	}
	var rows []Table2Row
	if w != nil {
		fmt.Fprintf(w, "Table 2 — %d inferences of the Table-1 network (%.2f MFLOP each)\n",
			samples, float64(ops.FLOPs)/1e6)
		fmt.Fprintf(w, "%-18s %-5s %14s %14s %14s %14s\n",
			"platform", "unit", "time/s", "paper time/s", "power/W", "energy/J")
		line(w, 84)
	}
	for _, p := range platform.Table2Profiles() {
		est, err := p.Run(ops, samples)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Platform: p.Name, Device: p.Device, Estimate: est})
		if w != nil {
			pub := published[p.Name+"/"+p.Device]
			fmt.Fprintf(w, "%-18s %-5s %14.2f %14.2f %14.2f %14.2f\n",
				p.Name, p.Device, est.TimeSeconds, pub[0], est.PowerWatts, est.EnergyJoules)
		}
	}
	if w != nil {
		line(w, 84)
		nanoSpeed := rows[0].Estimate.TimeSeconds / rows[1].Estimate.TimeSeconds
		tx2Speed := rows[2].Estimate.TimeSeconds / rows[3].Estimate.TimeSeconds
		nanoEnergy := rows[0].Estimate.EnergyJoules / rows[1].Estimate.EnergyJoules
		tx2Energy := rows[2].Estimate.EnergyJoules / rows[3].Estimate.EnergyJoules
		fmt.Fprintf(w, "GPU speedup: %.1fx (Nano), %.1fx (TX2)   [paper: 4.8x-7.1x]\n", nanoSpeed, tx2Speed)
		fmt.Fprintf(w, "GPU energy gain: %.1fx (Nano), %.1fx (TX2) [paper: 5.0x-6.3x]\n", nanoEnergy, tx2Energy)
		fmt.Fprintf(w, "TX2-GPU vs Nano-GPU: %.1fx               [paper: ~2.1x]\n",
			rows[1].Estimate.TimeSeconds/rows[3].Estimate.TimeSeconds)
	}
	return rows, nil
}

// HostInference measures actual wall-clock inference latency of the
// Table-1 network on the host running this process (the "develop like on a
// desktop system" path of the embedded prototype).
func HostInference(cfg Config, samples int, w io.Writer) (time.Duration, error) {
	if samples <= 0 {
		samples = 1000
	}
	m, err := Table1(cfg, io.Discard)
	if err != nil {
		return 0, err
	}
	x := make([]float64, m.InputLen())
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	start := time.Now()
	for i := 0; i < samples; i++ {
		m.Predict(x)
	}
	elapsed := time.Since(start)
	if w != nil {
		fmt.Fprintf(w, "host inference: %d samples in %v (%.3f ms/sample)\n",
			samples, elapsed, float64(elapsed.Milliseconds())/float64(samples))
	}
	return elapsed, nil
}
