type t = { mutable state : int64 }

let create seed =
  let seed = if Int64.equal seed 0L then 0x9E3779B97F4A7C15L else seed in
  { state = seed }

let next t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545F4914F6CDD1DL

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
