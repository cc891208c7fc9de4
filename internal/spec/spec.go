// Package spec reads the "kind,key=value,...[;...]" grammar of the
// -faults, -workload and -coalesce flags and HTTP fields, and is the
// only reader of their "@file" JSON form. Errors read "key: problem";
// the caller adds the flag or field name.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Keys maps every accepted key, aliases included, to a pointer into the
// value being filled: *int, *uint64, *float64, *bool or *string.
// Aliases of one key share a pointer.
type Keys map[string]any

// Items splits a multi-item spec on ";", dropping empty items.
func Items(s string) []string {
	var items []string
	for _, it := range strings.Split(s, ";") {
		if it = strings.TrimSpace(it); it != "" {
			items = append(items, it)
		}
	}
	return items
}

// Bind reads one "kind,key=value,..." item into keys and returns the
// kind. Tokens are trimmed, the kind and keys case-folded, and empty
// fields skipped. A field without "=", an unknown key and a key given
// twice (under any of its aliases) are errors.
func Bind(item string, keys Keys) (kind string, err error) {
	fields := strings.Split(item, ",")
	seen := make(map[any]string, len(fields)-1)
	for _, f := range fields[1:] {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		ptr, known := keys[key]
		switch prev, dup := seen[ptr]; {
		case !ok:
			return "", fmt.Errorf("%s: not key=value", key)
		case !known:
			names := make([]string, 0, len(keys))
			for name := range keys {
				names = append(names, name)
			}
			sort.Strings(names)
			return "", fmt.Errorf("%s: unknown key (accepted: %s)", key, strings.Join(names, ", "))
		case dup:
			return "", fmt.Errorf("%s: duplicate key (already set as %s)", key, prev)
		}
		seen[ptr] = key
		if err := set(ptr, strings.TrimSpace(val)); err != nil {
			return "", fmt.Errorf("%s: %v", key, err)
		}
	}
	return strings.ToLower(strings.TrimSpace(fields[0])), nil
}

// set converts val by the type ptr points to and stores it. Integers
// take an exact decimal or, failing that, integral float notation
// ("1.5e9") within the type's range; floats must be finite.
func set(ptr any, val string) error {
	switch p := ptr.(type) {
	case *int:
		n, err := strconv.ParseInt(val, 10, 0)
		if err != nil {
			f, ferr := whole(val, math.MinInt64, math.MaxInt64)
			n, err = int64(f), ferr
		}
		*p = int(n)
		return err
	case *uint64:
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			f, ferr := whole(val, 0, math.MaxUint64)
			n, err = uint64(f), ferr
		}
		*p = n
		return err
	case *float64:
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%q is not a finite number", val)
		}
		*p = f
	case *bool:
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("%q is not a boolean", val)
		}
		*p = b
	case *string:
		*p = strings.ToLower(val)
	default:
		panic(fmt.Sprintf("spec: unsupported key target %T", ptr))
	}
	return nil
}

// whole parses an integral float in [lo, hi), where hi is the first
// float64 past the integer type's range.
func whole(val string, lo, hi float64) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f != math.Trunc(f) || f < lo || f >= hi {
		return 0, fmt.Errorf("%q is not an integer in [%.0f, %.0f)", val, lo, hi)
	}
	return f, nil
}

// ReadFile decodes the JSON file at path into v, strictly (Decode).
func ReadFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Decode(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Decode decodes one JSON value into v, rejecting unknown fields and
// trailing data. A type's UnmarshalJSON calls it to stay as strict.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
