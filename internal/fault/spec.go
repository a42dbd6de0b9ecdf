package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mlimp/internal/event"
)

// ErrBadSpec marks a malformed fabric-fault flag value. Both CLIs wire
// it (and the Validate errors underneath) into flag validation with
// exit status 2.
var ErrBadSpec = errors.New("fault: bad fabric-fault spec")

// ParseHubCrashes parses a -hub-crash flag value: slash-separated
// "region@at:recover" entries with times in milliseconds, e.g.
// "1@2:6" or "0@2:6/1@10:14".
func ParseHubCrashes(spec string) ([]HubCrash, error) {
	var out []HubCrash
	for _, part := range splitSpecs(spec) {
		region, window, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q wants region@at:recover", ErrBadSpec, part)
		}
		r, err := strconv.Atoi(region)
		if err != nil {
			return nil, fmt.Errorf("%w: %q has no region index", ErrBadSpec, part)
		}
		at, rec, err := parseWindow(window, part)
		if err != nil {
			return nil, err
		}
		out = append(out, HubCrash{Region: r, At: at, Recover: rec})
	}
	return out, nil
}

// ParseEdgeFaults parses an -edge-fault flag value: slash-separated
// "from>to@at:until:drop:delay" entries with times in milliseconds and
// until 0 meaning an open-ended window, e.g.
// "hub0>hub1@2:6:1:0" or "hub1>hub0@0:0:0.5:0.1".
func ParseEdgeFaults(spec string) ([]EdgeFault, error) {
	var out []EdgeFault
	for _, part := range splitSpecs(spec) {
		edge, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q wants from>to@at:until:drop:delay", ErrBadSpec, part)
		}
		from, to, ok := strings.Cut(edge, ">")
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("%w: %q wants a from>to edge", ErrBadSpec, part)
		}
		fields := strings.Split(rest, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("%w: %q wants at:until:drop:delay after @", ErrBadSpec, part)
		}
		at, err := parseMs(fields[0], part)
		if err != nil {
			return nil, err
		}
		until, err := parseMs(fields[1], part)
		if err != nil {
			return nil, err
		}
		drop, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(drop) || math.IsInf(drop, 0) {
			return nil, fmt.Errorf("%w: %q has a bad drop probability", ErrBadSpec, part)
		}
		delay, err := parseMs(fields[3], part)
		if err != nil {
			return nil, err
		}
		out = append(out, EdgeFault{From: from, To: to,
			At: at, Until: until, DropProb: drop, Delay: delay})
	}
	return out, nil
}

func splitSpecs(spec string) []string {
	var parts []string
	for _, p := range strings.Split(spec, "/") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

func parseWindow(s, ctx string) (at, until event.Time, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q wants an at:recover window", ErrBadSpec, ctx)
	}
	if at, err = parseMs(a, ctx); err != nil {
		return 0, 0, err
	}
	if until, err = parseMs(b, ctx); err != nil {
		return 0, 0, err
	}
	return at, until, nil
}

// parseMs parses a millisecond value into simulated time. NaN, ±Inf and
// values beyond the event.Time range are rejected here: converting them
// would silently yield an arbitrary time.
func parseMs(s, ctx string) (event.Time, error) {
	v, err := strconv.ParseFloat(s, 64)
	t := v * float64(event.Millisecond)
	if err != nil || !(math.Abs(t) < math.MaxInt64) {
		return 0, fmt.Errorf("%w: %q has a bad time %q (milliseconds)", ErrBadSpec, ctx, s)
	}
	return event.Time(t), nil
}
