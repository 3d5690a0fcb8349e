let rev_take k l =
  let rec go k acc = function
    | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
    | rest -> (acc, rest)
  in
  go k [] l
