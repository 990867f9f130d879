package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent is the id of the
// span that caused it (0 for the workload span).
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Time
	End    time.Time
	Tags   map[string]string
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer is off: every method is a no-op, so untraced passes pay one
// nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// specSpans counts per-spec spans (those tagged with a source);
	// past maxSpecSpans they are counted in dropped instead of kept.
	specSpans int
	dropped   int
}

// maxSpecSpans caps the per-spec spans a run keeps: enough to show
// several passes of every workload record by record, while a run's
// hundreds of short fabric passes neither grow its heap, which would
// change the GC load it measures, nor write a dump of megabytes.
const maxSpecSpans = 5000

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int, tags map[string]string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now, tags)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Now()
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int, start, end time.Time, tags map[string]string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tags["source"] != "" {
		if t.specSpans >= maxSpecSpans {
			t.dropped++
			return 0
		}
		t.specSpans++
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Tags: tags})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as a Chrome trace. Spans that overlap without
// nesting (per-spec spans from parallel engine workers) go on separate
// lanes, so every lane shows properly nested intervals.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	origin := t.spans[0].Start
	var laneEnd []time.Time // per lane: end of its last leaf span
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		lane := 0 // workload and phase spans nest on lane 0
		if s.Tags["source"] != "" {
			lane = -1
			for i, e := range laneEnd {
				if !e.After(s.Start) {
					lane = i + 1
					laneEnd[i] = s.End
					break
				}
			}
			if lane < 0 {
				laneEnd = append(laneEnd, s.End)
				lane = len(laneEnd)
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Tags {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: lane, Args: args,
			TS:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		})
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]int{"dropped_spec_spans": t.dropped},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
