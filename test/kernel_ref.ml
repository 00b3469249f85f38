(* The classic kernels' payload closures that the wheel replaced by
   its inline one-bit exchange, kept as reference twins: [words_twin k]
   is a [Rumor] kernel rebuilt as the [Words] kernel it used to be.
   test_kernel checks each classic kernel against its twin bit for bit
   (rounds, metrics, history, informed bytes). *)

module I32 = Gossip_scale.I32
module Kernel = Gossip_scale.Kernel

(* Responses carry the responder's round-start informed bit, a payload
   word of 1 marks the receiver (request side in phase 1b, response
   side in phase 1c).  Payload words arrive zeroed, so emitters only
   write the 1 case. *)
let req_informed ~u:_ ~informed ~buf ~off = if informed then I32.set buf off 1

let req_always ~u:_ ~informed:_ ~buf ~off = I32.set buf off 1

let deliver_informed ~v:_ ~informed ~buf ~off = if informed then I32.set buf off 1

let push_if_pay ~v:_ ~buf ~off = I32.get buf off = 1

let mark_if_pay ~u:_ ~slot:_ ~rtt:_ ~buf ~off = I32.get buf off = 1

let words_twin (k : Kernel.t) =
  match k.Kernel.exchange with
  | Kernel.Words _ -> invalid_arg "Kernel_ref.words_twin: already a Words kernel"
  | Kernel.Rumor { request_always } ->
      {
        k with
        Kernel.exchange =
          Kernel.Words
            {
              req_pay = (if request_always then req_always else req_informed);
              on_deliver = deliver_informed;
              on_push = push_if_pay;
              on_response = mark_if_pay;
            };
      }
