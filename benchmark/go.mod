// The stack benchmark is a module of its own so that it has its own build
// file; the replace directive points it at the repository it measures. The
// module path keeps the dytis/ prefix so the internal packages stay
// importable.
module dytis/benchmark

go 1.22

require dytis v0.0.0

replace dytis => ../
