module Graph = Gossip_graph.Graph
module Heap = Gossip_util.Heap

type node = Gossip_graph.Graph.node

type 'p handlers = {
  on_round : round:int -> (node * 'p) option;
  on_request : peer:node -> round:int -> 'p -> 'p;
  on_push : peer:node -> round:int -> 'p -> unit;
  on_response : peer:node -> round:int -> 'p -> unit;
}

type faults = {
  alive : node:node -> round:int -> bool;
  drop : initiator:node -> responder:node -> round:int -> bool;
  jitter : latency:int -> round:int -> int;
}

let no_faults =
  {
    alive = (fun ~node:_ ~round:_ -> true);
    drop = (fun ~initiator:_ ~responder:_ ~round:_ -> false);
    jitter = (fun ~latency ~round:_ -> latency);
  }

type metrics = {
  mutable rounds : int;
  mutable initiations : int;
  mutable deliveries : int;
  mutable payload_words : int;
  mutable rejected : int;
  mutable dropped : int;
}

type 'p event =
  | Request of { initiator : node; responder : node; payload : 'p; response_due : int }
  | Response of { initiator : node; responder : node; payload : 'p }

type 'p t = {
  graph : Graph.t;
  handlers : 'p handlers array;
  events : 'p event Heap.t;
  metrics : metrics;
  faults : faults;
  in_capacity : int option;
  payload_size : 'p -> int;
  mutable now : int;
}

let empty_metrics () =
  { rounds = 0; initiations = 0; deliveries = 0; payload_words = 0; rejected = 0; dropped = 0 }

let add_metrics ~into m =
  into.rounds <- into.rounds + m.rounds;
  into.initiations <- into.initiations + m.initiations;
  into.deliveries <- into.deliveries + m.deliveries;
  into.payload_words <- into.payload_words + m.payload_words;
  into.rejected <- into.rejected + m.rejected;
  into.dropped <- into.dropped + m.dropped

let create ?(faults = no_faults) ?in_capacity ?(payload_size = fun _ -> 1) g ~handlers =
  (match in_capacity with
  | Some c when c < 1 -> invalid_arg "Engine.create: in_capacity must be >= 1"
  | Some _ | None -> ());
  {
    graph = g;
    handlers = Array.init (Graph.n g) handlers;
    events = Heap.create ();
    metrics =
      { rounds = 0; initiations = 0; deliveries = 0; payload_words = 0; rejected = 0; dropped = 0 };
    faults;
    in_capacity;
    payload_size;
    now = 0;
  }

let graph t = t.graph

let current_round t = t.now

let metrics t = t.metrics

let step t =
  let round = t.now in
  let alive node = t.faults.alive ~node ~round in
  (* Phase 1: deliveries due this round, in three sub-phases that keep
     the classical synchronous semantics.  First every response is
     generated (read-only, against state as of the start of the round),
     then the request payloads are pushed into responder state, and
     finally the responses due this round — including those a latency-1
     edge generated just now — are delivered.  Information therefore
     never chains through several same-round deliveries. *)
  let rec pop_due acc =
    if Heap.is_empty t.events then List.rev acc
    else begin
      let due, _ = Heap.peek_min t.events in
      if due < round then invalid_arg "Engine.step: event from the past"
      else if due = round then pop_due (snd (Heap.pop_min t.events) :: acc)
      else List.rev acc
    end
  in
  let due_now = pop_due [] in
  let all_requests =
    List.filter_map (function Request _ as r -> Some r | Response _ -> None) due_now
  in
  let responses =
    List.filter_map (function Response _ as r -> Some r | Request _ -> None) due_now
  in
  (* Bounded in-degree (the restricted model discussed in Section 7):
     each node serves at most [in_capacity] incoming requests per
     round; the rest are rejected and simply get no response.  Service
     order rotates with the round so that persistent requesters are
     treated fairly rather than starved by a fixed arrival order. *)
  let requests =
    match t.in_capacity with
    | None -> all_requests
    | Some capacity ->
        let by_responder = Hashtbl.create 16 in
        List.iter
          (function
            | Request { responder; _ } as r ->
                let l = Option.value ~default:[] (Hashtbl.find_opt by_responder responder) in
                Hashtbl.replace by_responder responder (r :: l)
            | Response _ -> ())
          all_requests;
        let served = ref [] in
        Hashtbl.iter
          (fun _responder reversed ->
            let reqs = Array.of_list (List.rev reversed) in
            let total = Array.length reqs in
            let offset = if total = 0 then 0 else round * capacity mod total in
            for i = 0 to total - 1 do
              if i < capacity then served := reqs.((offset + i) mod total) :: !served
              else t.metrics.rejected <- t.metrics.rejected + 1
            done)
          by_responder;
        List.rev !served
  in
  (* A crashed responder never answers; the exchange is lost. *)
  let requests =
    List.filter
      (function
        | Request { responder; _ } ->
            if alive responder then true
            else begin
              t.metrics.dropped <- t.metrics.dropped + 1;
              false
            end
        | Response _ -> true)
      requests
  in
  (* Sub-phase 1a: generate responses from pre-merge state. *)
  List.iter
    (function
      | Request { initiator; responder; payload; response_due } ->
          let response =
            t.handlers.(responder).on_request ~peer:initiator ~round payload
          in
          Heap.push t.events response_due
            (Response { initiator; responder; payload = response })
      | Response _ -> ())
    requests;
  (* Sub-phase 1b: merge the pushed request payloads. *)
  List.iter
    (function
      | Request { initiator; responder; payload; response_due = _ } ->
          t.metrics.deliveries <- t.metrics.deliveries + 1;
          t.metrics.payload_words <- t.metrics.payload_words + t.payload_size payload;
          t.handlers.(responder).on_push ~peer:initiator ~round payload
      | Response _ -> ())
    requests;
  (* Sub-phase 1c: deliver responses, including same-round ones
     generated in 1a by latency-1 edges.  A crashed initiator cannot
     receive. *)
  let deliver_response = function
    | Response { initiator; responder; payload } ->
        if alive initiator then begin
          t.metrics.deliveries <- t.metrics.deliveries + 1;
          t.metrics.payload_words <- t.metrics.payload_words + t.payload_size payload;
          t.handlers.(initiator).on_response ~peer:responder ~round payload
        end
        else t.metrics.dropped <- t.metrics.dropped + 1
    | Request _ -> ()
  in
  List.iter deliver_response responses;
  List.iter deliver_response (pop_due []);
  (* Phase 2: initiations, in ascending node order; crashed nodes stay
     silent and lossy channels may eat the whole exchange. *)
  for u = 0 to Graph.n t.graph - 1 do
    if alive u then begin
      match t.handlers.(u).on_round ~round with
      | None -> ()
      | Some (peer, payload) -> begin
          match Graph.latency t.graph u peer with
          | None -> invalid_arg "Engine.step: initiation toward a non-neighbor"
          | Some latency ->
              t.metrics.initiations <- t.metrics.initiations + 1;
              if t.faults.drop ~initiator:u ~responder:peer ~round then
                t.metrics.dropped <- t.metrics.dropped + 1
              else begin
                let latency = max 1 (t.faults.jitter ~latency ~round) in
                let arrival = round + ((latency + 1) / 2) in
                let response_due = round + latency in
                Heap.push t.events arrival
                  (Request { initiator = u; responder = peer; payload; response_due })
              end
        end
    end
  done;
  t.now <- round + 1;
  t.metrics.rounds <- t.metrics.rounds + 1

let run_until t ~max_rounds done_ =
  let start = t.now in
  let rec go () =
    if done_ () then Some (t.now - start)
    else if t.now - start >= max_rounds then None
    else begin
      step t;
      go ()
    end
  in
  go ()
