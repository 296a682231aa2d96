#!/bin/sh
# Benchmark smoke check, from the repository root. Ready for
# .github/workflows/ci.yml to call; the PR that added bench/ was not
# allowed to edit that file.
set -eu
go vet ./bench
go test ./bench
go run ./bench -smoke
