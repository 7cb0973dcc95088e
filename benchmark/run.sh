#!/bin/bash
# BENCHMARK.json's command. A command may name only paths inside benchmark/,
# and `go run -C benchmark .` would name the repository root, so the driver
# starts this file, which builds and runs the module it sits in.
exec go run -C "$(dirname "$0")" . "$@"
