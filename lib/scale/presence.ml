type schedule = { absences : (int * int * int) array; rejoins : (int * int) array }

type t = Always | Absences of schedule | Alive_at of (node:int -> round:int -> bool)

let never = max_int

(* Built once, when the plan is compiled: sorted by leave for the
   per-shard cursors, and the amnesia points derived from the same
   intervals.  A run only reads both. *)
let absences intervals =
  Array.iter
    (fun (leave, _, back) ->
      if back <= leave then invalid_arg "Presence.absences: an absence must end after it starts")
    intervals;
  let absences = Array.copy intervals in
  Array.sort compare absences;
  let rejoins =
    Array.to_list absences
    |> List.filter_map (fun (_, v, back) -> if back = never then None else Some (back, v))
    |> List.sort_uniq compare |> Array.of_list
  in
  Absences { absences; rejoins }

(* The reference semantics: a node was present over [since .. round]
   unless an absence [leave .. back - 1] intersects it.  A static plan
   knows no intervals, so its presence is liveness at [round]. *)
let present_since p ~node ~since ~round =
  match p with
  | Always -> true
  | Alive_at f -> f ~node ~round
  | Absences s ->
      not
        (Array.exists
           (fun (leave, v, back) -> v = node && leave <= round && since < back)
           s.absences)

let alive p ~node ~round = present_since p ~node ~since:round ~round

let check ~n = function
  | Always | Alive_at _ -> ()
  | Absences s ->
      Array.iter
        (fun (_, v, _) ->
          if v < 0 || v >= n then invalid_arg "Wheel_engine.create: absence node out of range")
        s.absences

let rejoins = function Always | Alive_at _ -> [||] | Absences s -> s.rejoins

(* Seen from [clock], an absence that ended before it is gone; one
   ending exactly at [clock] stays for its rejoin at the new round 0.
   Shifting both arrays by the same amount keeps their order, so the
   rebased schedule needs no sort. *)
let rebase ~clock p =
  if clock = 0 then p
  else
    match p with
    | Always -> Always
    | Alive_at f -> Alive_at (fun ~node ~round -> f ~node ~round:(round + clock))
    | Absences s ->
        let keep f a = Array.of_seq (Seq.filter_map f (Array.to_seq a)) in
        Absences
          {
            absences =
              keep
                (fun (leave, v, back) ->
                  if back < clock then None
                  else Some (leave - clock, v, if back = never then never else back - clock))
                s.absences;
            rejoins =
              keep (fun (r, v) -> if r < clock then None else Some (r - clock, v)) s.rejoins;
          }

let column p ~n =
  match p with
  | Always | Absences { absences = [||]; _ } -> None
  | Absences _ | Alive_at _ -> Some (I32.make n 0)

(* The column holds, per node, the largest [back] among the absences
   that have begun ([0] when none has); [never] is clamped to the
   int32 ceiling, a round no run reaches.  A static plan's node gets
   [0] when alive and [round + 1] when not. *)
let advance p away ~cursor ~lo ~hi ~round =
  match p with
  | Always -> cursor
  | Alive_at f ->
      for v = lo to hi - 1 do
        I32.set away v (if f ~node:v ~round then 0 else round + 1)
      done;
      cursor
  | Absences { absences = a; _ } ->
      let i = ref cursor in
      while
        !i < Array.length a
        &&
        let leave, _, _ = a.(!i) in
        leave <= round
      do
        let _, v, back = a.(!i) in
        if v >= lo && v < hi && back > I32.get away v then
          I32.set away v (if back > I32.max_value then I32.max_value else back);
        incr i
      done;
      !i

let[@inline] present away v ~since = I32.get away v <= since
