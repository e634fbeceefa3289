let mean = function
  | [] -> 0.0
  | xs ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n
