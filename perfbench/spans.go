package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// span is one timed interval the traced run records around its calls
// into the simulator. Times are host nanoseconds since the run began.
// Args carry name-specific values: a slice's simulated cycle range, a
// replay batch's operation count, a read's thread and simulated
// arrival and completion cycles.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64
	Args       [3]int64
}

// spans keeps a traced run's spans in memory until the run ends.
type spans struct {
	t0    time.Time
	list  []span
	slice int32 // the open slice span, parent of read completions
}

func newSpans() *spans { return &spans{t0: time.Now(), slice: -1} }

func (s *spans) ns(t time.Time) int64 { return t.Sub(s.t0).Nanoseconds() }

// open starts a span and returns its id; close ends it.
func (s *spans) open(name string, parent int32, start time.Time) int32 {
	id := int32(len(s.list))
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: s.ns(start)})
	return id
}

func (s *spans) close(id int32, end time.Time, a, b int64) {
	sp := &s.list[id]
	sp.End, sp.Args[0], sp.Args[1] = s.ns(end), a, b
}

// add records a finished span; a nil recorder (untraced runs) ignores it.
func (s *spans) add(name string, parent int32, start, end time.Time, a, b int64) int32 {
	if s == nil {
		return -1
	}
	id := s.open(name, parent, start)
	s.close(id, end, a, b)
	return id
}

// chainReads records every read completion of sys as a zero-length
// span under the open slice, chained in front of the controller's
// existing callback so the simulation itself is unchanged.
func (s *spans) chainReads(sys *sim.System) {
	ctrl := sys.Controller()
	inner := ctrl.OnReadDone
	ctrl.OnReadDone = func(req *core.Request, now int64) {
		t := s.ns(time.Now())
		s.list = append(s.list, span{
			ID: int32(len(s.list)), Parent: s.slice, Name: "read",
			Start: t, End: t,
			Args: [3]int64{int64(req.Thread), req.ArrivalReal, now},
		})
		inner(req, now)
	}
}

// write saves the spans as JSON, one span per line, to file.
func (s *spans) write(file, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"fields\":[\"id\",\"parent\",\"name\",\"start_ns\",\"end_ns\",\"args\"],\"spans\":[\n", workload, seed)
	var buf []byte
	for i, sp := range s.list {
		buf = append(buf[:0], '[')
		buf = strconv.AppendInt(buf, int64(sp.ID), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(sp.Parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, sp.Name)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, sp.Start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, sp.End, 10)
		buf = append(buf, ",["...)
		for j, a := range sp.Args {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, a, 10)
		}
		buf = append(buf, "]]"...)
		if i < len(s.list)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
