package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xcluster/internal/accuracy"
	"xcluster/internal/query"
)

// header identifies the workload file format (version 1).
const header = "# xcluster workload v1"

// WriteTo serializes the workload as a line-oriented text file — one
// query per line with its class and exact selectivity — so a generated
// (and exactly-scored) workload can be reused across runs and machines
// without re-evaluating the document. It implements io.WriterTo.
func (w *Workload) WriteTo(out io.Writer) (int64, error) {
	bw := bufio.NewWriter(out)
	n := 0
	write := func(s string) error {
		m, err := bw.WriteString(s)
		n += m
		return err
	}
	if err := write(header + "\n"); err != nil {
		return int64(n), err
	}
	for _, q := range w.Queries {
		if err := write(fmt.Sprintf("%s\t%g\t%s\n", ClassName(q.Class), q.True, q.Q)); err != nil {
			return int64(n), err
		}
	}
	return int64(n), bw.Flush()
}

// Read parses a workload written by WriteTo, re-parsing every query.
func Read(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("workload: empty input")
	}
	if got := strings.TrimSpace(sc.Text()); got != header {
		return nil, fmt.Errorf("workload: bad header %q", got)
	}
	w := &Workload{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: line %d: want class<TAB>selectivity<TAB>query", line)
		}
		class, ok := classNamed(parts[0])
		if !ok {
			return nil, fmt.Errorf("workload: line %d: unknown class %q", line, parts[0])
		}
		sel, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: selectivity: %v", line, err)
		}
		q, err := query.Parse(parts[2])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %v", line, err)
		}
		w.Queries = append(w.Queries, Query{Q: q, Class: class, True: sel})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("workload: no queries")
	}
	return w, nil
}

// classNamed parses a Figure 8 class name written by WriteTo.
func classNamed(name string) (accuracy.Class, bool) {
	for _, cn := range classNames {
		if cn.name == name {
			return cn.class, true
		}
	}
	return 0, false
}
