// Package export serializes wavefront plans — the artifact the inspector
// builds and the runtime's schedule cache retains — to a versioned,
// deterministic JSON document and to Graphviz DOT. It is the observability
// counterpart of the schedule cache: a plan becomes a file that can be
// committed, diffed between runs, fed to doastat, or (eventually) shipped to
// another process as the wire format of a distributed shard.
//
// Both encoders are byte-deterministic: encoding a snapshot of the same plan
// twice, or snapshots taken from two independently-built runtimes over the
// same loop, yields identical bytes. JSON field order is fixed by the Doc
// struct, every slice is emitted in a canonical order (iterations ascending,
// levels ascending, workers ascending), and no map, timestamp or
// host-dependent value appears anywhere in the document.
//
// The document carries a schema version (Doc.Schema, currently
// SchemaVersion): decoders reject documents from a different schema rather
// than guessing, so the format can evolve without silently misreading old
// files.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"doacross/internal/core"
	"doacross/internal/depgraph"
	"doacross/internal/sched"
)

// SchemaVersion is the plan document schema this package reads and writes.
// Version 1 covers the writer index, predecessor lists, level decomposition,
// static schedule and inspection statistics of one wavefront plan.
const SchemaVersion = 1

// Doc is the versioned JSON plan document. Field order here is the byte
// order of the encoded document; do not reorder fields without bumping
// SchemaVersion.
type Doc struct {
	// Schema is the document's schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Name labels the plan (a loop or problem name); it feeds the DOT graph
	// title and is otherwise free-form.
	Name string `json:"name"`
	// Iterations and Data are the loop's dimensions.
	Iterations int `json:"iterations"`
	Data       int `json:"data"`
	// Workers is the schedule worker count the plan was built for.
	Workers int `json:"workers"`
	// Writer is the dense writer index: Writer[e] is the iteration writing
	// element e, -1 if none.
	Writer []int32 `json:"writer"`
	// Preds holds each iteration's true-dependency predecessors.
	Preds [][]int32 `json:"preds"`
	// Levels is the wavefront decomposition in CSR form.
	Levels LevelsDoc `json:"levels"`
	// Schedule is the level-sorted static schedule; omitted when the plan
	// never materialized one.
	Schedule *ScheduleDoc `json:"schedule,omitempty"`
	// Stats are the plan's inspection statistics.
	Stats StatsDoc `json:"stats"`
}

// LevelsDoc is the level decomposition: level l's iterations are
// Members[Off[l]:Off[l+1]], ascending; len(Off) is the level count plus one.
type LevelsDoc struct {
	Members []int32 `json:"members"`
	Off     []int32 `json:"off"`
}

// ScheduleDoc is the static schedule: Items[l][w] lists the iterations worker
// w executes in level l, in execution order. Policy records how levels were
// distributed ("block" or "cyclic" — a Dynamic runtime policy has no static
// materialization and degrades to cyclic before export).
type ScheduleDoc struct {
	Policy  string      `json:"policy"`
	Workers int         `json:"workers"`
	Items   [][][]int32 `json:"items"`
}

// StatsDoc mirrors core.InspectStats field for field; see that type for the
// semantics of each statistic.
type StatsDoc struct {
	Iterations      int     `json:"iterations"`
	Edges           int     `json:"edges"`
	StallWeight     float64 `json:"stallWeight"`
	Levels          int     `json:"levels"`
	MaxLevelWidth   int     `json:"maxLevelWidth"`
	MeanLevelWidth  float64 `json:"meanLevelWidth"`
	CriticalPathLen int     `json:"criticalPathLen"`
	ScheduleRounds  int     `json:"scheduleRounds"`
	ReadImbalance   float64 `json:"readImbalance"`
	DynamicClaims   int     `json:"dynamicClaims"`
}

// FromSnapshot converts a plan snapshot into its document form. Nil inner
// slices are normalized to empty ones so the encoding is identical no matter
// how the snapshot was produced.
func FromSnapshot(name string, s *core.PlanSnapshot) *Doc {
	preds := make([][]int32, len(s.Preds))
	for i, ps := range s.Preds {
		preds[i] = emptyNotNil(ps)
	}
	d := &Doc{
		Schema:     SchemaVersion,
		Name:       name,
		Iterations: s.Iterations,
		Data:       s.Data,
		Workers:    s.Workers,
		Writer:     emptyNotNil(s.Writer),
		Preds:      preds,
		Levels: LevelsDoc{
			Members: emptyNotNil(s.Levels.Members),
			Off:     emptyNotNil(s.Levels.Off),
		},
		Stats: statsDoc(s.Stats),
	}
	if s.Schedule != nil {
		d.Schedule = scheduleDoc(s.Schedule)
	}
	return d
}

// emptyNotNil maps a nil slice to an empty one so it encodes as [] and not
// null.
func emptyNotNil(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}

// InspectStats converts the document statistics back to their runtime form
// (CacheHit, a property of a live lookup, stays false).
func (s StatsDoc) InspectStats() core.InspectStats {
	return core.InspectStats{
		Iterations:      s.Iterations,
		Edges:           s.Edges,
		StallWeight:     s.StallWeight,
		Levels:          s.Levels,
		MaxLevelWidth:   s.MaxLevelWidth,
		MeanLevelWidth:  s.MeanLevelWidth,
		CriticalPathLen: s.CriticalPathLen,
		ScheduleRounds:  s.ScheduleRounds,
		ReadImbalance:   s.ReadImbalance,
		DynamicClaims:   s.DynamicClaims,
	}
}

func statsDoc(st core.InspectStats) StatsDoc {
	return StatsDoc{
		Iterations:      st.Iterations,
		Edges:           st.Edges,
		StallWeight:     st.StallWeight,
		Levels:          st.Levels,
		MaxLevelWidth:   st.MaxLevelWidth,
		MeanLevelWidth:  st.MeanLevelWidth,
		CriticalPathLen: st.CriticalPathLen,
		ScheduleRounds:  st.ScheduleRounds,
		ReadImbalance:   st.ReadImbalance,
		DynamicClaims:   st.DynamicClaims,
	}
}

func scheduleDoc(s *sched.LevelSchedule) *ScheduleDoc {
	items := make([][][]int32, s.Levels())
	for l := range items {
		items[l] = make([][]int32, s.Workers())
		for w := range items[l] {
			items[l][w] = append([]int32{}, s.Items(l, w)...)
		}
	}
	return &ScheduleDoc{
		Policy:  s.PolicyUsed.String(),
		Workers: s.Workers(),
		Items:   items,
	}
}

// EncodeJSON writes the document as indented JSON with a trailing newline.
// The output is byte-deterministic for structurally equal documents.
func EncodeJSON(w io.Writer, d *Doc) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// DecodeJSON reads a plan document, rejecting unknown schema versions and
// structurally invalid documents.
func DecodeJSON(r io.Reader) (*Doc, error) {
	var d Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("export: decoding plan document: %w", err)
	}
	if d.Schema != SchemaVersion {
		return nil, fmt.Errorf("export: plan document schema %d, this build reads schema %d", d.Schema, SchemaVersion)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the document's structural invariants: dimensions agree,
// the writer index and predecessor lists stay in range, the level
// decomposition covers every iteration exactly once in monotone CSR form,
// and every dependency crosses levels forward. A document that validates can
// be rebuilt into a plan snapshot (see Snapshot).
func (d *Doc) Validate() error {
	if d.Iterations < 0 || d.Data < 0 {
		return fmt.Errorf("export: negative dimensions (iterations=%d data=%d)", d.Iterations, d.Data)
	}
	if len(d.Writer) != d.Data {
		return fmt.Errorf("export: writer index has %d entries for data length %d", len(d.Writer), d.Data)
	}
	for e, w := range d.Writer {
		if w < -1 || int(w) >= d.Iterations {
			return fmt.Errorf("export: writer[%d] = %d out of range [-1, %d)", e, w, d.Iterations)
		}
	}
	if len(d.Preds) != d.Iterations {
		return fmt.Errorf("export: %d predecessor lists for %d iterations", len(d.Preds), d.Iterations)
	}
	level, err := d.levelOf()
	if err != nil {
		return err
	}
	for i, ps := range d.Preds {
		for _, p := range ps {
			if p < 0 || int(p) >= i {
				return fmt.Errorf("export: iteration %d has predecessor %d outside [0, %d)", i, p, i)
			}
			if level[p] >= level[i] {
				return fmt.Errorf("export: dependency %d -> %d does not cross levels forward (%d >= %d)", p, i, level[p], level[i])
			}
		}
	}
	if d.Schedule != nil {
		if _, err := parsePolicy(d.Schedule.Policy); err != nil {
			return err
		}
		if d.Schedule.Workers < 1 {
			return fmt.Errorf("export: schedule worker count %d", d.Schedule.Workers)
		}
		if len(d.Schedule.Items) != len(d.Levels.Off)-1 {
			return fmt.Errorf("export: schedule has %d levels, decomposition %d", len(d.Schedule.Items), len(d.Levels.Off)-1)
		}
		for l, ws := range d.Schedule.Items {
			if len(ws) != d.Schedule.Workers {
				return fmt.Errorf("export: schedule level %d has %d worker lists for %d workers", l, len(ws), d.Schedule.Workers)
			}
		}
	}
	if d.Stats.Iterations != d.Iterations {
		return fmt.Errorf("export: stats cover %d iterations, document %d", d.Stats.Iterations, d.Iterations)
	}
	return nil
}

// levelOf validates the CSR decomposition and returns each iteration's level.
func (d *Doc) levelOf() ([]int32, error) {
	off := d.Levels.Off
	if len(off) < 1 || off[0] != 0 || int(off[len(off)-1]) != len(d.Levels.Members) {
		return nil, fmt.Errorf("export: level offsets do not span the member list")
	}
	if len(d.Levels.Members) != d.Iterations {
		return nil, fmt.Errorf("export: decomposition covers %d of %d iterations", len(d.Levels.Members), d.Iterations)
	}
	level := make([]int32, d.Iterations)
	for i := range level {
		level[i] = -1
	}
	for l := 0; l+1 < len(off); l++ {
		if off[l+1] < off[l] || int(off[l+1]) > len(d.Levels.Members) {
			return nil, fmt.Errorf("export: level offsets not monotone within the member list at level %d", l)
		}
		for _, m := range d.Levels.Members[off[l]:off[l+1]] {
			if m < 0 || int(m) >= d.Iterations {
				return nil, fmt.Errorf("export: level %d member %d out of range [0, %d)", l, m, d.Iterations)
			}
			if level[m] >= 0 {
				return nil, fmt.Errorf("export: iteration %d appears in levels %d and %d", m, level[m], l)
			}
			level[m] = int32(l)
		}
	}
	for i, l := range level {
		if l < 0 {
			return nil, fmt.Errorf("export: iteration %d missing from the decomposition", i)
		}
	}
	return level, nil
}

// parsePolicy inverts sched.Policy.String for the policies a static schedule
// can record.
func parsePolicy(s string) (sched.Policy, error) {
	switch s {
	case "block":
		return sched.Block, nil
	case "cyclic":
		return sched.Cyclic, nil
	case "dynamic":
		return sched.Dynamic, nil
	default:
		return 0, fmt.Errorf("export: unknown schedule policy %q", s)
	}
}

// Snapshot rebuilds the plan snapshot the document describes. The document
// is validated first; when it carries a schedule, the schedule is rebuilt
// from the decomposition under the recorded policy and checked item-for-item
// against the recorded assignments, so a document whose schedule was edited
// out of sync with its levels is rejected rather than silently replayed —
// the wire format is self-checking.
func (d *Doc) Snapshot() (*core.PlanSnapshot, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	level, err := d.levelOf()
	if err != nil {
		return nil, err
	}
	s := &core.PlanSnapshot{
		Iterations: d.Iterations,
		Data:       d.Data,
		Workers:    d.Workers,
		Writer:     append([]int32(nil), d.Writer...),
		Preds:      make([][]int32, len(d.Preds)),
		Levels: depgraph.LevelSet{
			Level:   level,
			Members: append([]int32(nil), d.Levels.Members...),
			Off:     append([]int32(nil), d.Levels.Off...),
		},
		Stats: d.Stats.InspectStats(),
	}
	for i, ps := range d.Preds {
		s.Preds[i] = append([]int32(nil), ps...)
	}
	if d.Schedule != nil {
		policy, err := parsePolicy(d.Schedule.Policy)
		if err != nil {
			return nil, err
		}
		s.Policy = policy
		rebuilt := sched.NewLevelSchedule(d.Levels.Members, d.Levels.Off, policy, d.Schedule.Workers)
		for l, ws := range d.Schedule.Items {
			for w, items := range ws {
				got := rebuilt.Items(l, w)
				if len(got) != len(items) {
					return nil, fmt.Errorf("export: schedule level %d worker %d records %d items, decomposition yields %d", l, w, len(items), len(got))
				}
				for k := range items {
					if got[k] != items[k] {
						return nil, fmt.Errorf("export: schedule level %d worker %d item %d is %d, decomposition yields %d", l, w, k, items[k], got[k])
					}
				}
			}
		}
		s.Schedule = rebuilt
	}
	return s, nil
}

// DOT renders the document's dependency graph in Graphviz DOT, iterations
// grouped by wavefront level in rank=same clusters — the shape of
// depgraph.Graph.DOT, derived from the exported decomposition instead of a
// live graph. Node and edge order is canonical (levels ascending, members
// ascending, consumers ascending then producers in recorded order), so the
// output is byte-deterministic and diffable. Intended for small graphs.
func (d *Doc) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", d.Name)
	for l := 0; l+1 < len(d.Levels.Off); l++ {
		fmt.Fprintf(&b, "  { rank=same;")
		for _, m := range d.Levels.Members[d.Levels.Off[l]:d.Levels.Off[l+1]] {
			fmt.Fprintf(&b, " i%d;", m)
		}
		fmt.Fprintf(&b, " } // level %d\n", l)
	}
	for i, ps := range d.Preds {
		for _, p := range ps {
			fmt.Fprintf(&b, "  i%d -> i%d;\n", p, i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
