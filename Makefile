GO ?= go

.PHONY: check build test race vet bench loc

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

loc: ## lines of Go: non-test, non-test outside bench/, test (ROADMAP aim two's success metric)
	@echo "non-test Go:               $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go outside bench: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go:                   $$(find . -name '*_test.go' | xargs cat | wc -l)"
