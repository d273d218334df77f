package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	ga "gameauthority"
)

// scrape is one read of the program's own metrics (the text /metrics
// serves), keyed by series: name plus its label set as rendered.
type scrape map[string]float64

// readObs scrapes the process-wide observability registry.
func readObs() (scrape, error) {
	var buf bytes.Buffer
	if err := ga.WriteObsMetrics(&buf); err != nil {
		return nil, err
	}
	return parseScrape(&buf), nil
}

func parseScrape(buf *bytes.Buffer) scrape {
	out := make(scrape)
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sub returns the per-series change from before to s.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// hist reads a histogram's sum (seconds) and count from a scrape delta.
// labels is the rendered label set, e.g. `driver="pure"`, or "".
func (s scrape) hist(name, labels string) (sumSeconds, count float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return s[name+"_sum"+suffix], s[name+"_count"+suffix]
}

// histMeanUS is a histogram's mean observation in microseconds.
func (s scrape) histMeanUS(name, labels string) float64 {
	sum, n := s.hist(name, labels)
	return ratio(sum*1e6, n)
}

// Histogram families the benchmark reads back from the program.
const (
	histPlay        = "gameauthority_play_latency_seconds"
	histWSRoundTrip = "gameauthority_ws_roundtrip_seconds"
	histHTTP        = "gameauthority_http_request_seconds"
	histRestore     = "gameauthority_restore_seconds"
)

// driverLabel is the play-latency histogram's label for one driver.
func driverLabel(driver string) string { return `driver="` + driver + `"` }

// routeLabel is the HTTP latency histogram's label for one route pattern.
func routeLabel(pattern string) string { return `route="` + pattern + `"` }
