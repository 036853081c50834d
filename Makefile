# Development entry points; CI (.github/workflows/ci.yml) runs the same
# targets.

GO ?= go

.PHONY: all build test race bench fmt fmt-check vet lint docscheck apicheck examples benchmod check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Determinism under the race detector with sharded workers.
race:
	$(GO) test -race -short ./...

# Full bench suite; writes BENCH_<date>.json in the repo root.
bench:
	scripts/bench.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Contract gate: loan, determinism and sortedness analyzers over the
# whole tree, tests included. See docs/linting.md for the annotation
# grammar and suppression rules.
lint:
	$(GO) run ./scripts/dynlint ./...

# Docs gate: package comments everywhere, markdown links resolve.
docscheck:
	$(GO) run ./scripts/docscheck

# API gate: the exported surface of package dynlocal must match the
# checked-in snapshot. After an intentional change:
#   go run ./scripts/apicheck -update
apicheck:
	$(GO) run ./scripts/apicheck

# Run every example; a non-zero exit (an example that finds a violated
# guarantee exits 1) fails the target.
examples:
	@for ex in examples/*/; do echo "== $$ex"; $(GO) run "./$$ex" > /dev/null || exit 1; done

# bench/ is its own module (not in the root's ./...): build, vet and
# smoke-test it against this tree's sources.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build fmt-check vet lint docscheck apicheck test examples benchmod
