package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Time-series export: when Config.SampleInterval is set the runner
// samples every simulation's metrics on epoch boundaries, and when
// Config.SeriesDir is also set each run leaves two artifacts named
// after its memo key:
//
//   - <key>.series.json — the full epoch series (per-interval counter
//     deltas, gauge values, histogram-bucket deltas) plus the fairness
//     series and its summary, self-describing for plotting tools;
//   - <key>.fairness.csv — the fairness series flattened to one row
//     per (epoch, thread), plot-ready like the figure CSVs. Every row
//     leads with the run's policy name so fairness series from
//     different schedulers (e.g. an arena sweep) concatenate into one
//     plottable file.

// seriesDoc is the schema of a <key>.series.json artifact.
type seriesDoc struct {
	Key      string           `json:"key"`
	Policy   string           `json:"policy"`
	Interval int64            `json:"interval"`
	Epochs   int64            `json:"epochs"`
	Samples  []metrics.Sample `json:"samples"`

	Fairness struct {
		Summary memctrl.FairnessSummary  `json:"summary"`
		Samples []memctrl.FairnessSample `json:"samples"`
	} `json:"fairness"`
}

// sanitizeKey maps a memo key like "co/art+vpr/FQ-VFTF" to a filename
// stem, replacing path separators and anything else unfriendly.
func sanitizeKey(key string) string {
	out := make([]byte, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '+', c == '-', c == '_':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// WriteSeriesJSON writes a finished run's epoch series — per-interval
// metric deltas plus the fairness series and its summary, labelled
// with key and the run's policy — to w as the indented JSON document
// of a <key>.series.json artifact. s must have been sampled
// (sim.Config.SampleInterval > 0).
func WriteSeriesJSON(w io.Writer, key string, s *sim.System) error {
	doc := seriesDoc{
		Key:      key,
		Policy:   s.Controller().Policy().Name(),
		Interval: s.Sampler().Interval(),
		Epochs:   s.Sampler().Epochs(),
		Samples:  s.Sampler().Samples(-1),
	}
	doc.Fairness.Summary = s.Fairness().Summary()
	doc.Fairness.Samples = s.Fairness().Samples(-1)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeSeries exports one finished run's time series into dir.
func writeSeries(dir, key string, s *sim.System) error {
	stem := filepath.Join(dir, sanitizeKey(key))

	jf, err := os.Create(stem + ".series.json")
	if err != nil {
		return err
	}
	if err := WriteSeriesJSON(jf, key, s); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}

	cf, err := os.Create(stem + ".fairness.csv")
	if err != nil {
		return err
	}
	policy := s.Controller().Policy().Name()
	var rows [][]string
	for _, fs := range s.Fairness().Samples(-1) {
		for t := range fs.Service {
			rows = append(rows, []string{
				policy,
				strconv.FormatInt(fs.Epoch, 10), strconv.FormatInt(fs.Cycle, 10),
				strconv.Itoa(t), strconv.FormatInt(fs.Service[t], 10),
				f(fs.Share[t]), f(fs.Phi[t]), f(fs.Excess[t]),
				strconv.FormatBool(fs.Backlogged[t]), f(fs.CumShortfall[t]),
				strconv.Itoa(fs.TopAggressor[t]), strconv.FormatInt(fs.StolenCycles[t], 10),
			})
		}
	}
	err = writeCSV(cf, []string{
		"policy", "epoch", "cycle", "thread", "service", "share", "phi", "excess", "backlogged", "cum_shortfall",
		"top_aggressor", "stolen_cycles",
	}, rows)
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("exp: fairness csv %s: %w", key, err)
	}
	return nil
}
