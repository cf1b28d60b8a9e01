"""CLI stdout bytes and exit codes, pinned by sha256.

Each row is an invocation, its exit code and the sha256 of its stdout,
recorded before the arithmetic classes were given a shared base.  A
refactor that keeps every row passing keeps the command line
byte-identical on the rank-2 pipeline verbs (G2, B2, C2, A2 and both
G2 matrix literals) and on the enumeration verbs at rank 4-5 (B4, F4,
D5), in both output formats.

GOLDEN_CELLS, recorded the same way one change later, adds ``roots`` on
G2, B4 and F4, ``poincare`` with multi-node (also reducible) parabolics
with and without ``--at`` on D5, F4, A5 and C4, ``cosets --format json``
for a middle node of A5 and D5, and ``poincare E6 --at 2``: the paths
that cell counts from the degrees, coset names by suffix and the JSON
writer replaced.

GOLDEN_WALK_ROWS, recorded before the representatives of ``cosets`` were
handed to the JSON writer column-wise, adds the 960-row document of
D5/P5 and the text of A5/P3.
"""

import hashlib

from g2pair.cli import run

GOLDEN = [
    (['certificate', 'G2', '--format', 'text'], 0, "dcb48c45e62d6974ffa357f8c868240577584bf96862fa72037a1d3e9f05b26a"),
    (['certificate', 'G2', '--format', 'json'], 0, "64869bab2e45c8b789c4deff9a4680664a368a4371936f706e8e1d0dd15f6fb7"),
    (['verify-identity', 'G2', '--format', 'text'], 0, "7ad315c1e79a67c4e1bc0bf0667c4c7e878e33a51d75311ce24fe5aa173e69c1"),
    (['verify-identity', 'G2', '--format', 'json'], 0, "e45309f5e7ab62c8b3b5c3affe2dac66ea54a6bb933c43919c380535a5fde32d"),
    (['degree', 'G2', '--side', '1', '--format', 'text'], 0, "084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0"),
    (['degree', 'G2', '--side', '1', '--format', 'json'], 0, "c5f4a7a6c2fda68dfdb86da32b53b0e21fa5c3c1547fbb713528c0f13ed5bc97"),
    (['degree', 'G2', '--side', '2', '--format', 'text'], 0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    (['degree', 'G2', '--side', '2', '--format', 'json'], 0, "382922c3abefe1a4a0474ca8bbfb76d427a1834857e58db3a7e020a0493bc162"),
    (['poincare', 'G2', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "82d20bdb3ec683c1f2c3429814e7ef9b85ea76d7695c16651ac3b114c6f7839c"),
    (['poincare', 'G2', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "35b7639850ab8830d60b03242d4411f3b441f30f5135eed14a77d956c3fb2ff9"),
    (['cosets', 'G2', '--parabolic', '2', '--format', 'text'], 0, "2f3cbdd98baecd1bc8386f4b09da283aed4fc639efb4a9e0f4e9b0bf89f3556c"),
    (['cosets', 'G2', '--parabolic', '2', '--format', 'json'], 0, "08dbc36a71052d824b521ab8e1e5671a842022ac8cb2956f14925246b6a7f15b"),
    (['certificate', 'B2', '--format', 'text'], 0, "e5898e1dc3ed7a0558aad7eb36bc273b842eb16ead554e61c287460daa399dc5"),
    (['certificate', 'B2', '--format', 'json'], 0, "071b62386c3202c17855b6687ad361e78560790c9f628a45976ecd55ead09cb4"),
    (['verify-identity', 'B2', '--format', 'text'], 0, "7256c60bddebf9c08e2c9115fbeedc9310639629039a3cdaaf8d0a802bea131f"),
    (['verify-identity', 'B2', '--format', 'json'], 0, "8e8675532f323901ed228a832219dd54b891b803243b70ba8248fc2384c52a03"),
    (['degree', 'B2', '--side', '1', '--format', 'text'], 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    (['degree', 'B2', '--side', '1', '--format', 'json'], 0, "1018edb5664063b01581e25775e6838488da8226d15229b28e2e18778c173128"),
    (['degree', 'B2', '--side', '2', '--format', 'text'], 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    (['degree', 'B2', '--side', '2', '--format', 'json'], 0, "dac12bd71524464da53503f1075af40df10192b04fefb05c3a22471a92930b44"),
    (['poincare', 'B2', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "673650f936cb3b0a2f93ce09d81be10748b1b203c19e8176b4eefc1964a0cf3a"),
    (['poincare', 'B2', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "5bd1397f047fd248f76aacee47a1f4e3d813e025c663166e724195f28c10b8c1"),
    (['cosets', 'B2', '--parabolic', '2', '--format', 'text'], 0, "7ed388b236dbda7a9ca202158cae65ae75b0db71d5a2153bc1c41274091087d2"),
    (['cosets', 'B2', '--parabolic', '2', '--format', 'json'], 0, "62202d6a251fe38dff1d7b8938ce53d5c2b004888a31ec89fc6a8b3553eb00e3"),
    (['certificate', 'C2', '--format', 'text'], 0, "722d60d51f86bb4f7d72882c17e334e0ab00da5834fa2125c7fada11a2bf6b7b"),
    (['certificate', 'C2', '--format', 'json'], 0, "31c2a26f29546e293ab113b6e63beb39695e0e6102757b3634ea1563846b47c2"),
    (['verify-identity', 'C2', '--format', 'text'], 0, "7256c60bddebf9c08e2c9115fbeedc9310639629039a3cdaaf8d0a802bea131f"),
    (['verify-identity', 'C2', '--format', 'json'], 0, "499ffacbc898aefd60469545d9d4d5296236104d277471dd13ca110210f6aefb"),
    (['degree', 'C2', '--side', '1', '--format', 'text'], 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    (['degree', 'C2', '--side', '1', '--format', 'json'], 0, "44ef0fe6ef2d9e5732d4561b6c1ec84124fe665c75c31ba3a058bc5c932130e4"),
    (['degree', 'C2', '--side', '2', '--format', 'text'], 0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06"),
    (['degree', 'C2', '--side', '2', '--format', 'json'], 0, "f49c83dd83f1f95d57c40751dbfd218a417254411b8c75951480fd92cbe0dd1b"),
    (['poincare', 'C2', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "673650f936cb3b0a2f93ce09d81be10748b1b203c19e8176b4eefc1964a0cf3a"),
    (['poincare', 'C2', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "f8e4f83aed684e7d670460111d4e3403c09b27dc7c6798a118d0807454d4f133"),
    (['cosets', 'C2', '--parabolic', '2', '--format', 'text'], 0, "7ed388b236dbda7a9ca202158cae65ae75b0db71d5a2153bc1c41274091087d2"),
    (['cosets', 'C2', '--parabolic', '2', '--format', 'json'], 0, "3ffe97af15a6b35c80e9a6621ad9db0603128682aa16f2def96f77cfb4f524d4"),
    (['certificate', 'A2', '--format', 'text'], 0, "8e7310dc259a71c45c4cde1d225d724478b30143fca41db9e393180b26169671"),
    (['certificate', 'A2', '--format', 'json'], 0, "72caf26829b4e58bd23eea37b54858d3694c8683d6ef3435831ce425912a047a"),
    (['verify-identity', 'A2', '--format', 'text'], 0, "5d4f92899b7cbeb1a33ff0a586541af59f275797dd84f6bcc904a1a3d3613844"),
    (['verify-identity', 'A2', '--format', 'json'], 0, "0659fe96abd3e42f1f4668eee4c4f239129a87ac9f740c1c0503e2eeae29f82f"),
    (['degree', 'A2', '--side', '1', '--format', 'text'], 0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    (['degree', 'A2', '--side', '1', '--format', 'json'], 0, "51721029564bcef3695711efd60e9e2a9c02987e6bf62b803ac67bfbc5d17d13"),
    (['degree', 'A2', '--side', '2', '--format', 'text'], 0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    (['degree', 'A2', '--side', '2', '--format', 'json'], 0, "42ff2eaada7255925b74222b1d1f74aabbdc884af1324f343cd84e748d5fc60e"),
    (['poincare', 'A2', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    (['poincare', 'A2', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "ab213f983610aee609197e9172162443f8c857f3778eedde9b7588709f08caf8"),
    (['cosets', 'A2', '--parabolic', '2', '--format', 'text'], 0, "6fc01937491ff5180d027f4a314d3d4e6c33c3bb6ab02ebbfaeb528a30b48b9f"),
    (['cosets', 'A2', '--parabolic', '2', '--format', 'json'], 0, "2d2257d703f99eae0c50463cf9b070406f31c0309078b3fd9693af0475fde392"),
    (['certificate', '[[2,-1],[-3,2]]', '--format', 'text'], 0, "c4e4fdadda71b42b6979608a5ded23f52b3df280d6edb92b725aa3e37c67abf1"),
    (['certificate', '[[2,-1],[-3,2]]', '--format', 'json'], 0, "4605f95c6a2010783eb36e1edb6456b8d4170df3fa7396ca70fb47427b2c4ac0"),
    (['verify-identity', '[[2,-1],[-3,2]]', '--format', 'text'], 0, "7ad315c1e79a67c4e1bc0bf0667c4c7e878e33a51d75311ce24fe5aa173e69c1"),
    (['verify-identity', '[[2,-1],[-3,2]]', '--format', 'json'], 0, "56dc1de559a072b425283b399994fbbbe4731045df3ead1f90336758d504ddf9"),
    (['degree', '[[2,-1],[-3,2]]', '--side', '1', '--format', 'text'], 0, "084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0"),
    (['degree', '[[2,-1],[-3,2]]', '--side', '1', '--format', 'json'], 0, "3de831503437fd24e73946a72ead2a047a0a5e5add68718107c9b9dd3a58b336"),
    (['degree', '[[2,-1],[-3,2]]', '--side', '2', '--format', 'text'], 0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    (['degree', '[[2,-1],[-3,2]]', '--side', '2', '--format', 'json'], 0, "3c2589e43caa6565bdfc1287e15689b582df5625bbaa6c72b5dc8ab9d62699fe"),
    (['poincare', '[[2,-1],[-3,2]]', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "82d20bdb3ec683c1f2c3429814e7ef9b85ea76d7695c16651ac3b114c6f7839c"),
    (['poincare', '[[2,-1],[-3,2]]', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "502be46b16d014760c7973a5e7fb03eac04a18908931e93217aad9acabba7e60"),
    (['cosets', '[[2,-1],[-3,2]]', '--parabolic', '2', '--format', 'text'], 0, "2f3cbdd98baecd1bc8386f4b09da283aed4fc639efb4a9e0f4e9b0bf89f3556c"),
    (['cosets', '[[2,-1],[-3,2]]', '--parabolic', '2', '--format', 'json'], 0, "4b7e5ad1c28afdda9ea3ecd477cc908af84c75a9ba5cb2802357b31e03baa31e"),
    (['certificate', '[[2,-3],[-1,2]]', '--format', 'text'], 0, "ce488c96d723c5ee2184d4aff2cc4a898afa19aede035738dbe75b34fda1af00"),
    (['certificate', '[[2,-3],[-1,2]]', '--format', 'json'], 0, "3cd4c4e9333fc5814b0d88156d94bc55185706fb4ff6d1d10549352fbc0e6d57"),
    (['verify-identity', '[[2,-3],[-1,2]]', '--format', 'text'], 0, "7ad315c1e79a67c4e1bc0bf0667c4c7e878e33a51d75311ce24fe5aa173e69c1"),
    (['verify-identity', '[[2,-3],[-1,2]]', '--format', 'json'], 0, "9acc1a9caba276a1983e4fa3fbed168b9002a8c89c6a7f283fce294795475715"),
    (['degree', '[[2,-3],[-1,2]]', '--side', '1', '--format', 'text'], 0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    (['degree', '[[2,-3],[-1,2]]', '--side', '1', '--format', 'json'], 0, "24e6c45ffdba97b620112648cbf6977a4fec5d53ebf8b6693a0ebaf548bd679f"),
    (['degree', '[[2,-3],[-1,2]]', '--side', '2', '--format', 'text'], 0, "084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0"),
    (['degree', '[[2,-3],[-1,2]]', '--side', '2', '--format', 'json'], 0, "34f10e85e99440a6407fc06222de5957f78b3cbe982a5fee158b7cf5d73cb916"),
    (['poincare', '[[2,-3],[-1,2]]', '--parabolic', '1', '--at', '3', '--format', 'text'], 0, "82d20bdb3ec683c1f2c3429814e7ef9b85ea76d7695c16651ac3b114c6f7839c"),
    (['poincare', '[[2,-3],[-1,2]]', '--parabolic', '1', '--at', '3', '--format', 'json'], 0, "1d722ca4e467b238e3c830688ced0586fb8f4d639e5506be159673c4b9cf6b86"),
    (['cosets', '[[2,-3],[-1,2]]', '--parabolic', '2', '--format', 'text'], 0, "2f3cbdd98baecd1bc8386f4b09da283aed4fc639efb4a9e0f4e9b0bf89f3556c"),
    (['cosets', '[[2,-3],[-1,2]]', '--parabolic', '2', '--format', 'json'], 0, "3b456b7b89874de733fca723a9b1b85548f2cc0ecf5ee941513b6b91545abea1"),
    (['weyl-order', 'B4', '--format', 'text'], 0, "579c81f568f7c29e169413de59514e21afa79aa0787df62272e11a71fd42dabc"),
    (['weyl-order', 'B4', '--format', 'json'], 0, "ff886b8616e258a86fff0bce99b6980745cc28288d9ad740d87c14845adc6ce0"),
    (['poincare', 'B4', '--format', 'text'], 0, "bf6bb0c970fcd4e4e6943eacce187b0b3cd42f24e96b3143b0c7ab8c4d3b9c6b"),
    (['poincare', 'B4', '--format', 'json'], 0, "1ab18b5504b806402f43911938bb56008132993cb0c24c6dbe8f7672e03f8dd1"),
    (['cosets', 'B4', '--parabolic', '1', '--format', 'text'], 0, "86621898ad705c61e9283c7147872ba03de5a50305459dfa54c53f228208513a"),
    (['cosets', 'B4', '--parabolic', '1', '--format', 'json'], 0, "0301e72ebc5e7cb7f9049150567e0f86d849cc2f546b754d27bc9f21b692374c"),
    (['poincare', 'B4', '--parabolic', '1,3', '--at', '3', '--format', 'text'], 0, "f5ff24519714f2c16394ef0375b5deb524a9b95f85ebdd0c915a7bbef8899956"),
    (['poincare', 'B4', '--parabolic', '1,3', '--at', '3', '--format', 'json'], 0, "943d9a20e3fcf12f6dffc31b3a2754228f1a83705b6663c7c487db4d127ae440"),
    (['weyl-order', 'F4', '--format', 'text'], 0, "9843dd42ed5f99643e579dae429662242df8bffa9d2c720cf6cef79f5a078737"),
    (['weyl-order', 'F4', '--format', 'json'], 0, "d1c5ceeb7cc545cb5b6799bbc6d6f9be387a27fb11c636bf83eca24f7302d271"),
    (['poincare', 'F4', '--format', 'text'], 0, "0a2c3e024252f22b8c08d41e7771b2f7ff816cc1aad2a50d6694ae4de5abb5a6"),
    (['poincare', 'F4', '--format', 'json'], 0, "6b93e3d48cf327b7476ebf267df873bd09aa9cc3032c06f542a0b967bc64c198"),
    (['cosets', 'F4', '--parabolic', '1', '--format', 'text'], 0, "823d11395b7a79bc02b0f6bd94b9bddfaffdc3e989a642562ec40c841fd6dfb4"),
    (['cosets', 'F4', '--parabolic', '1', '--format', 'json'], 0, "c3cea5cad02ec35a81264fdf20eab38745d3d8e9f326f5a5ff3617f809329955"),
    (['poincare', 'F4', '--parabolic', '1,3', '--at', '3', '--format', 'text'], 0, "9f336f9baa7ac7c1c052ebf1341164b85a35c1e9119ba876f5be0f3b477d88e3"),
    (['poincare', 'F4', '--parabolic', '1,3', '--at', '3', '--format', 'json'], 0, "2b3c958b7a961169d6fdcc23df6cd2d732df0529cf318134e23d50aae40f5d5d"),
    (['weyl-order', 'D5', '--format', 'text'], 0, "98d8e9f74d312189e4c6c76fa98c708bc45a109df4bd5f51fbe16638ddbdbbc0"),
    (['weyl-order', 'D5', '--format', 'json'], 0, "6ca398ecb2cac1754ba05f5c486868742745d631a2b6e54e956dda55e7bb9937"),
    (['poincare', 'D5', '--format', 'text'], 0, "d5c38ef6a8596a72a9c3a564233fe4de22e1ac728ecb2818639e5d042a071b78"),
    (['poincare', 'D5', '--format', 'json'], 0, "01b46f3db1a77464677e448f07c73f69290a0b6050135cb7cd29dc4341138d78"),
    (['cosets', 'D5', '--parabolic', '1', '--format', 'text'], 0, "a01240ef3e80d6b8015b5b88bd94fe33e201ad4d22aabeba696133000dfb2d9d"),
    (['cosets', 'D5', '--parabolic', '1', '--format', 'json'], 0, "634fa915be62ddca954f10a9ea82ba987bce408bd2505f8b4242d971cfbd3ccf"),
    (['poincare', 'D5', '--parabolic', '1,3', '--at', '3', '--format', 'text'], 0, "0cada6d79ffaac471e83ad8081461816d9bbfd34ef09b0c66b476210c20a1c9f"),
    (['poincare', 'D5', '--parabolic', '1,3', '--at', '3', '--format', 'json'], 0, "e37b99463ff2b3a31d577fc982acf8aaa3ecd217d6dc414d8a27fc1dca3b2217"),
]

GOLDEN_CELLS = [
    (['roots', 'G2', '--format', 'text'], 0, "58957fb31e23dda4c0a8ce83a67ea39930070acfefc30a76e7a8249d380f0b9e"),
    (['roots', 'G2', '--format', 'json'], 0, "6564efa268a2c5c8e84330b0f17011fc13b1340afc4e356f2ee645e6cee93618"),
    (['roots', 'B4', '--format', 'text'], 0, "bdad2fd086131822defb05a946c38121e71b1880d77d29dc5fb0765c268cfd36"),
    (['roots', 'B4', '--format', 'json'], 0, "8a696bf07a17881aee233d2d2ced61efc4d25ce68965ddc6b7bdd376f378c7a3"),
    (['roots', 'F4', '--format', 'text'], 0, "1f23f58abf7b1966eca50695d2fe249e1f453d97bab4913a0e589381d5428275"),
    (['roots', 'F4', '--format', 'json'], 0, "fa7f4ff716ba8db6b6fd6649d29fb8c3469ab7903c522aa1242fb30317aa4dc4"),
    (['poincare', 'D5', '--parabolic', '1,3,4', '--format', 'text'], 0, "efed9e7b4513f3ab6c87f0f025691d59f829bb06f330e733784906e4fa868935"),
    (['poincare', 'D5', '--parabolic', '1,3,4', '--format', 'json'], 0, "c82bfae07d52fa80c835c46112883dae2b44c76071f9ae28c20ebcbc07303eca"),
    (['poincare', 'D5', '--parabolic', '1,3,4', '--at', '2', '--format', 'text'], 0, "8de0c3f18b8486ff7a0c6cc31b7e84741acf0f6c2d7955f70c20e72ddb443c96"),
    (['poincare', 'D5', '--parabolic', '1,3,4', '--at', '2', '--format', 'json'], 0, "62f5c26a315e93dff7c0f512dd2f97f0c4db8a1184c3d35c7e5b279fb5515c7c"),
    (['poincare', 'F4', '--parabolic', '2,3', '--format', 'text'], 0, "61acce9263294f7788bec6637a31e343f371f6abb22279add898a8b320eae6b8"),
    (['poincare', 'F4', '--parabolic', '2,3', '--format', 'json'], 0, "80f217ca231cd7d53d1a3f8fb6da1edb39989423dc27d33f318d26790d06d807"),
    (['poincare', 'F4', '--parabolic', '2,3', '--at', '2', '--format', 'text'], 0, "3efe7c2fab39720e2d72dec0b1b00f7434bd21500f45d44b6319e45080a7f9bd"),
    (['poincare', 'F4', '--parabolic', '2,3', '--at', '2', '--format', 'json'], 0, "30fe6e1dd6634d1f434a25cadb15329277d06c36400b4ac61801d62aa3d3a8ac"),
    (['poincare', 'A5', '--parabolic', '1,2,4,5', '--format', 'text'], 0, "ddb395becc16b79c2aa9825a51b0ef47e3f917dfffd0fe0ff3f819eb4e5778b2"),
    (['poincare', 'A5', '--parabolic', '1,2,4,5', '--format', 'json'], 0, "f0b30bd923040ad13acdd85d3cd8b836d56157c2c989e4466fa50a0b04c98254"),
    (['poincare', 'A5', '--parabolic', '1,2,4,5', '--at', '2', '--format', 'text'], 0, "e9c8583cee2807bba1c85cb913a604a7438ef466c75c68bc422b42b789210d26"),
    (['poincare', 'A5', '--parabolic', '1,2,4,5', '--at', '2', '--format', 'json'], 0, "e2af8009f12bbae92765d4e3b49f95ee5906002cc88f69e219994fdf4c230309"),
    (['poincare', 'C4', '--parabolic', '2,3,4', '--format', 'text'], 0, "e494ecb24aa6d59ddebe6247fef560c203459a11cd6083582434797e8fc3935f"),
    (['poincare', 'C4', '--parabolic', '2,3,4', '--format', 'json'], 0, "cd2bba6b0663a9cdce3ec9dc817ee2fd4a01b31615c8da54e7d26ab3dcbadd8c"),
    (['poincare', 'C4', '--parabolic', '2,3,4', '--at', '2', '--format', 'text'], 0, "ce8bafb38615aeb5d44ebbabe78ec14ac35a5de87bdc5ad5ea82a72656024ce4"),
    (['poincare', 'C4', '--parabolic', '2,3,4', '--at', '2', '--format', 'json'], 0, "1271501b6402a7483f20eee60daa85c88e97ba5f152a0252d6de528e89e39afe"),
    (['cosets', 'A5', '--parabolic', '3', '--format', 'json'], 0, "a0bbff29aa63108f22da2cdd6e8543a3451e2bb4d2b1ba3151490259579f0e9e"),
    (['cosets', 'D5', '--parabolic', '3', '--format', 'json'], 0, "dc222af1a1c8a64e0674d87518fba1d125b97431541008257dbe12624ff9fd22"),
    (['poincare', 'E6', '--at', '2', '--format', 'text'], 0, "836960fa1e436898fd65f5ecf955b02695892733225c18aebc003b2e7529e257"),
    (['poincare', 'E6', '--at', '2', '--format', 'json'], 0, "5cc247c30704352630698a6573ce5fe986f50d3b502eeed5bfc9bfa91253c031"),
]

GOLDEN_WALK_ROWS = [
    (['cosets', 'D5', '--parabolic', '5', '--format', 'json'], 0, "a1f75faceba618ea69d92704972a0e61795ab0b0e69e203236bf476c798280c6"),
    (['cosets', 'A5', '--parabolic', '3', '--format', 'text'], 0, "9c32d3dc6e812bb4a42182bfdd9924227b877658ea8b8f69fbed1835e88ae51b"),
]


def drifted(rows, capsys):
    drift = []
    for argv, code, digest in rows:
        got_code = run(list(argv))
        out = capsys.readouterr().out
        got = hashlib.sha256(out.encode()).hexdigest()
        if (got_code, got) != (code, digest):
            drift.append((argv, got_code, got))
    return drift


def test_cli_stdout_matches_golden_digests(capsys):
    assert drifted(GOLDEN, capsys) == []
    assert len(GOLDEN) == 96


def test_cell_paths_match_golden_digests(capsys):
    assert drifted(GOLDEN_CELLS, capsys) == []
    assert len(GOLDEN_CELLS) == 26


def test_walk_rows_match_golden_digests(capsys):
    assert drifted(GOLDEN_WALK_ROWS, capsys) == []
