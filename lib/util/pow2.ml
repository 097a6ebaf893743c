let log2_floor n =
  let rec go k m = if m <= 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

let log2_ceil n = if n <= 1 then 0 else 1 + log2_floor (n - 1)

let log2_exact who n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg (who ^ ": size must be a power of two");
  log2_floor n
