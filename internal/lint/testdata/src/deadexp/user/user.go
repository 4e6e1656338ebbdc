// Package user calls deadexp's exported functions from a non-test file.
package user

import "radionet/internal/lint/testdata/src/deadexp"

func use() int {
	deadexp.Used()
	return deadexp.Box[int]{}.Get()
}
