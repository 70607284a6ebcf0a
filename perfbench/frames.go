package main

import (
	"bytes"
	"strconv"
)

// Gateway frames are newline-delimited JSON. The benchmark's clients scan
// them for the few fields they need instead of decoding them, as a thin
// device client would; the helpers below assume the gateway's own encoding
// (no whitespace between tokens).

var eventPrefix = []byte(`{"op":"event","id":"`)

// stringField returns the string value of the first `"name":"..."` in b.
// Escaped quotes inside the value are not unescaped.
func stringField(b []byte, name string) (string, bool) {
	pat := `"` + name + `":"`
	i := bytes.Index(b, []byte(pat))
	if i < 0 {
		return "", false
	}
	rest := b[i+len(pat):]
	for j := 0; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			j++
		case '"':
			return string(rest[:j]), true
		}
	}
	return "", false
}

// intField returns the integer value of the first `"name":<int>` in b.
func intField(b []byte, name string) (int64, bool) {
	pat := `"` + name + `":`
	i := bytes.Index(b, []byte(pat))
	if i < 0 {
		return 0, false
	}
	rest := b[i+len(pat):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// objectEnd returns the index just past the JSON object starting at b[0]
// ('{'), skipping braces inside strings; -1 if b holds no complete object.
func objectEnd(b []byte) int {
	if len(b) == 0 || b[0] != '{' {
		return -1
	}
	depth, inStr := 0, false
	for i := 0; i < len(b); i++ {
		c := b[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// objectField returns the raw object value of `"name":{...}` in b.
func objectField(b []byte, name string) ([]byte, bool) {
	pat := `"` + name + `":{`
	i := bytes.Index(b, []byte(pat))
	if i < 0 {
		return nil, false
	}
	obj := b[i+len(pat)-1:]
	end := objectEnd(obj)
	if end < 0 {
		return nil, false
	}
	return obj[:end], true
}

// eachArrayObject calls fn with every object of the array `"name":[...]`.
func eachArrayObject(b []byte, name string, fn func(obj []byte)) bool {
	pat := `"` + name + `":[`
	i := bytes.Index(b, []byte(pat))
	if i < 0 {
		return false
	}
	rest := b[i+len(pat):]
	for len(rest) > 0 {
		switch rest[0] {
		case ']':
			return true
		case ',':
			rest = rest[1:]
		case '{':
			end := objectEnd(rest)
			if end < 0 {
				return false
			}
			fn(rest[:end])
			rest = rest[end:]
		default:
			return false
		}
	}
	return false
}
