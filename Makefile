GO ?= go

.PHONY: check build test race vet bench

check: ## vet + gofmt + build + race-enabled tests + smokes (the repo's verify gate)
	sh scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchmem
