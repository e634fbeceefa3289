type config = {
  w_min : int;
  w_max : int;
  headroom : float;
  hysteresis : float;
}

let default_config = { w_min = 1; w_max = 64; headroom = 0.8; hysteresis = 0.25 }

let check_config c =
  if c.w_min < 1 then invalid_arg "Batch_ctl: w_min must be >= 1";
  if c.w_max < c.w_min then invalid_arg "Batch_ctl: w_max must be >= w_min";
  (* Written so that NaN, which fails every comparison, fails the check. *)
  if not (c.headroom > 0.0 && c.headroom <= 1.0) then
    invalid_arg "Batch_ctl: headroom must be in (0, 1]";
  if not (c.hysteresis >= 0.0) then invalid_arg "Batch_ctl: hysteresis must be >= 0"

(* Forgetting factor of the running least-squares fit of T(b) = F + c*b:
   old batches decay geometrically so the fit tracks regime changes. *)
let decay = 0.9

type t = {
  config : config;
  mutable window : int;
  mutable sn : float;
  mutable sx : float;
  mutable sy : float;
  mutable sxx : float;
  mutable sxy : float;
}

let create config =
  check_config config;
  { config; window = config.w_min; sn = 0.0; sx = 0.0; sy = 0.0; sxx = 0.0; sxy = 0.0 }

let window t = t.window

let observe t ~ops ~rounds =
  if ops > 0 then begin
    let b = float_of_int ops and y = float_of_int rounds in
    t.sn <- (decay *. t.sn) +. 1.0;
    t.sx <- (decay *. t.sx) +. b;
    t.sy <- (decay *. t.sy) +. y;
    t.sxx <- (decay *. t.sxx) +. (b *. b);
    t.sxy <- (decay *. t.sxy) +. (b *. y)
  end

(* (F, c) of the fitted batch-cost model T(b) = F + c*b.  While all samples
   share one batch size the slope is unidentifiable; fall back to c = 0 and
   F = mean T, which still yields a usable bootstrap window.  The same holds
   with only two samples: a line passes through any two points, so their
   slope is the rounds' noise as much as a per-op cost.  Two bootstrap
   batches at w_min differ by a few dozen ops and a few rounds, and such a
   slope times λ̂ could alone exceed the headroom and peg the window at
   w_max on some seeds but not others. *)
let fit t =
  (* fewer than two (decayed) samples: with decay 0.9 two fresh samples
     weigh 1.9, one weighs 1.0, three weigh 2.71 *)
  if t.sn < 1.5 then None
  else begin
    let det = (t.sn *. t.sxx) -. (t.sx *. t.sx) in
    if t.sn < 2.5 || Float.abs det < 1e-6 *. Float.max 1.0 t.sxx then Some (t.sy /. t.sn, 0.0)
    else begin
      let c = ((t.sn *. t.sxy) -. (t.sx *. t.sy)) /. det in
      let c = Float.max 0.0 c in
      let f = (t.sy -. (c *. t.sx)) /. t.sn in
      Some (Float.max 0.0 f, c)
    end
  end

let update t ~lambda_hat =
  let cfg = t.config in
  match fit t with
  | None -> (t.window, false)
  | Some (f, c) ->
      (* Lemma 3.7/3.8 trade-off: a window W accumulates lambda*W ops whose
         batch costs T = F + c*lambda*W rounds; utilisation T/W = F/W +
         c*lambda.  Solve F/W + c*lambda = headroom for the smallest stable
         window, clamp, and only adopt outside the hysteresis deadband. *)
      let denom = cfg.headroom -. (c *. Float.max 0.0 lambda_hat) in
      let target =
        if denom <= 0.0 then cfg.w_max
        else
          let w = Float.max 1.0 f /. denom in
          int_of_float (Float.round w)
      in
      let target = max cfg.w_min (min cfg.w_max target) in
      let drift =
        Float.abs (float_of_int (target - t.window)) /. float_of_int (max 1 t.window)
      in
      if target <> t.window && drift > cfg.hysteresis then begin
        t.window <- target;
        (target, true)
      end
      else (t.window, false)

(* ------------------------------------------------------------------ spec *)

type spec = Off | On of config

let spec_to_string = function
  | Off -> "off"
  | On c when c = default_config -> "on"
  | On c -> Printf.sprintf "on:%d:%d:%.17g:%.17g" c.w_min c.w_max c.headroom c.hysteresis

let spec_of_string s =
  match String.split_on_char ':' s with
  | [ "off" ] -> Ok Off
  | [ "on" ] -> Ok (On default_config)
  | [ "on"; w_min; w_max; headroom; hysteresis ] -> (
      match
        ( int_of_string_opt w_min,
          int_of_string_opt w_max,
          float_of_string_opt headroom,
          float_of_string_opt hysteresis )
      with
      | Some w_min, Some w_max, Some headroom, Some hysteresis ->
          let c = { w_min; w_max; headroom; hysteresis } in
          (try
             check_config c;
             Ok (On c)
           with Invalid_argument m -> Error m)
      | _ -> Error (Printf.sprintf "bad adaptive spec %S" s))
  | _ -> Error (Printf.sprintf "bad adaptive spec %S (want off | on | on:wmin:wmax:headroom:hyst)" s)
